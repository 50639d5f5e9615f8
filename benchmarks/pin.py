"""Re-pin digests.json from one pass of every workload at the default seed.

    python3 benchmarks/pin.py

Run it only when a change is meant to alter check names, check counts or
outputs; a same-behaviour refactor must leave digests.json as it is.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, WORKLOADS, child

DEFAULT_SEED = 0


def main():
    pins = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        _rc, res = child("worker.py", "--workload", workload, "--seed", str(DEFAULT_SEED), "--mode", "run")
        if res["failed"]:
            print("%s: %d failed checks; not pinning" % (workload, res["failed"]), file=sys.stderr)
            return 1
        pins["workloads"][workload] = res["digests"]
        print("%s: %d jobs, %d checks" % (workload, len(res["digests"]), res["attempted"]))
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
