"""One benchmark pass in a fresh process, so every lru_cache starts cold.

    python3 benchmarks/worker.py --workload W --seed N --mode setup|run|trace --t0 T

--t0 is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so setup_s covers interpreter
start, `import vtschur` with numpy, and seeded input generation.  Mode
`setup` stops there; `run` executes the job list; `trace` executes it with
the layer tracer installed and writes the spans to benchmarks/out/.
Prints one JSON object on stdout.  While the jobs run, speed.Sampler times
a fixed kernel every 0.1 s and around every product request; wall_s (the
job list) and the product latencies are taken without the kernel's own
time and put at its reference speed, and raw_wall_s is the job list's time
without the kernel's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the src path above)
import speed  # noqa: E402
from gate import Gate  # noqa: E402

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    sampler = speed.Sampler()
    jobs = workloads.plan(args.workload, args.seed, sampler)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    gate = Gate()
    windows = []
    sampler.start()
    for name, fn, fn_args, _seeded in jobs:
        t0 = time.perf_counter()
        if tracer is None:
            gate.run(name, fn, *fn_args)
        else:
            with tracer.job(name):
                gate.run(name, fn, *fn_args)
        windows.append((t0, time.perf_counter()))
    sampler.stop()
    digests = gate.digests()
    for name, _fn, _args, seeded in jobs:
        digests[name]["seeded"] = seeded

    out = {
        "setup_s": setup_s,
        "wall_s": sum(sampler.at_reference(a, b) for a, b in windows),
        "raw_wall_s": sum(sampler.raw(a, b) for a, b in windows),
        "kernel_ms": sampler.kernel_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_s": sampler.latencies(),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "digests": digests,
    }
    if tracer is not None:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer)
        out["tracer_s_per_call"] = tracer.overhead_json()
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
