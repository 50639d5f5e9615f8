"""vtschur benchmark runner.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports vtschur from src/ (no
build step).  Every pass runs in a fresh, single-threaded process
(worker.py), so each starts with cold caches, the way a `vtschur verify`
user starts.

--trace 0: rounds of three set-up-only processes and one full pass, until
the next round would end after --seconds (but at least two passes).  Reports the end-to-end
metrics: the medians of wall_s, setup_s and peak_rss_mb over the
processes, and the p50 and p90 latency of the product requests pooled over
the passes.  All times are at the reference speed (speed.py: a fixed
kernel timed all through each pass reads the host's speed, which swings by
more than the bounds); setup_s is scaled by the run's median kernel time.
The raw times are printed.

--trace 1: one untraced pass, then one pass with the layer tracer
installed.  Reports the per-layer metrics, trace_wall_s and
trace_overhead_s (traced minus untraced wall_s), all times at the
reference speed.

Every pass checks its outputs (gate.py), counts checks attempted and
failed, and must reproduce the job list and check counts pinned in
digests.json (and, where pinned for this seed, the digests).  The gate's
self-test (selftest.py) runs first.  The last stdout line is the JSON
result; a missing source tree or a crashed pass exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import REF_KERNEL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oracle", "commutant", "stabilize", "operators")  # workloads.WORKLOADS; no vtschur import here
SETUP_PROBES = 3  # set-up-only processes before each pass
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
           OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    pass


def child(script, *args):
    """Run one benchmark process to completion; its last stdout line is JSON."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    if script == "worker.py":
        cmd += ["--t0", repr(t0)]
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError("%s %s exited %d without a result" % (script, " ".join(args), proc.returncode))
    return proc.returncode, json.loads(lines[-1])


def check_pins(workload, seed, digests, pins):
    """Differences between a pass's job digests and the pinned ones."""
    want = pins["workloads"][workload]
    problems = []
    if list(digests) != list(want):
        problems.append("job list %r differs from the pinned %r" % (list(digests), list(want)))
    for name, got in digests.items():
        pin = want.get(name)
        if pin is None:
            continue
        if got["checks"] != pin["checks"]:
            problems.append("%s: %d checks, pinned %d" % (name, got["checks"], pin["checks"]))
        elif seed == pins["seed"] or not pin["seeded"]:
            for key in ("check_digest", "output_digest"):
                if got[key] != pin[key]:
                    problems.append("%s: %s %s, pinned %s" % (name, key, got[key], pin[key]))
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def unit_of(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vtschur", "__init__.py")):
        print("no vtschur source tree under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        pins = json.load(fh)

    start = time.monotonic()
    problems = []
    rc, selftest = child("selftest.py")
    if rc != 0 or not selftest["ok"]:
        problems.append("gate self-test did not count the planted faults: %r" % (selftest,))
    print("gate self-test: %d of %d checks failed, as planted (fail_ratio %.4f)"
          % (selftest["failed"], selftest["attempted"], selftest["fail_ratio"]))

    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    passes = []
    if args.trace == 0:
        # the set-up probes go before every pass, not in one block, so they
        # see the host through the whole run
        rounds = []
        while True:
            t0 = time.monotonic()
            for _ in range(SETUP_PROBES):
                setups.append(child("worker.py", *worker_args, "--mode", "setup")[1]["setup_s"])
            passes.append(child("worker.py", *worker_args, "--mode", "run")[1])
            rounds.append(time.monotonic() - t0)
            if len(passes) >= MIN_PASSES and time.monotonic() - start + max(rounds) > args.seconds:
                break
    else:
        passes.append(child("worker.py", *worker_args, "--mode", "run")[1])
        passes.append(child("worker.py", *worker_args, "--mode", "trace")[1])

    for k, res in enumerate(passes):
        problems += ["pass %d: %s" % (k, p) for p in check_pins(args.workload, args.seed, res["digests"], pins)]
    attempted = sum(res["attempted"] for res in passes)
    failed = sum(res["failed"] for res in passes)

    if args.trace == 0:
        setups += [res["setup_s"] for res in passes]
        latencies = [x for res in passes for x in res["latencies_s"]]
        walls = [res["wall_s"] for res in passes]
        # Set-up follows the host's speed over minutes but not from one
        # set-up to the next (NOTES.md), so it is scaled by the whole run's
        # kernel time, not each set-up's own.
        kernel_ms = statistics.median(res["kernel_ms"] for res in passes)
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(setups) * 1000 * REF_KERNEL_S / kernel_ms, "s"),
            "peak_rss_mb": metric(statistics.median(res["peak_rss_mb"] for res in passes), "MB"),
            "mult_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
            "mult_p90_ms": metric(1000 * statistics.quantiles(latencies, n=10)[8], "ms"),
        }
        print("%s seed %d: %d passes, wall_s %s (raw %s, kernel %s ms); raw setup_s over %d processes, "
              "%.3f to %.3f s, median %.3f; %d product latencies (%d beyond p90)"
              % (args.workload, args.seed, len(passes), " ".join("%.3f" % w for w in walls),
                 " ".join("%.3f" % res["raw_wall_s"] for res in passes),
                 " ".join("%.2f" % res["kernel_ms"] for res in passes),
                 len(setups), min(setups), max(setups), statistics.median(setups),
                 len(latencies), len(latencies) // 10))
    else:
        plain, traced = passes
        # self times to the reference speed, with the traced pass's factor
        scale = traced["wall_s"] / traced["raw_wall_s"]
        metrics = {name: metric(value * scale if unit_of(name) == "s" else value, unit_of(name))
                   for name, value in traced["layers"].items()}
        metrics["trace_wall_s"] = metric(traced["wall_s"], "s")
        metrics["trace_overhead_s"] = metric(traced["wall_s"] - plain["wall_s"], "s")
        print("%s seed %d: untraced wall_s %.3f (raw %.3f), traced %.3f (raw %.3f); spans in benchmarks/out/"
              % (args.workload, args.seed, plain["wall_s"], plain["raw_wall_s"],
                 traced["wall_s"], traced["raw_wall_s"]))
        print("tracer time taken out per call (own, caller): %s" % ", ".join(
            "%s %.3f/%.3f us" % (kind, 1e6 * c["own"], 1e6 * c["caller"])
            for kind, c in traced["tracer_s_per_call"].items()))
        layer_s = traced["layers"]["trace_layer_s"]
        print("layer shares of %.3f s layer self time: %s" % (layer_s, ", ".join(
            "%s %.1f%%" % (name[:-len(".self_s")], 100 * value / layer_s)
            for name, value in sorted(traced["layers"].items(), key=lambda kv: -kv[1])
            if name.count(".") == 1 and name.endswith(".self_s") and value > 0)))
    for p in problems:
        print("problem: %s" % p)
    print("checks: %d attempted, %d failed (fail_ratio %.6f)" % (attempted, failed, failed / attempted))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
