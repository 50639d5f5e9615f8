"""Self-test of the correctness gate: planted faults must be counted.

    python3 benchmarks/selftest.py

Feeds the gate (1) a product whose coefficient on one matrix is corrupted
and (2) a duality suite whose flag-side commutant dimension is reported one
too high, alongside their correct counterparts.  Exits 0 only if the gate
counts exactly those two checks as failed; prints the fail ratio with its
base either way.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the src path above)
from gate import Gate  # noqa: E402
from vtschur import laurent, schur, tensor  # noqa: E402


def corrupted_product(job):
    n, d, x, y, _kind = workloads.product_requests(random.Random("selftest"), 3, 2, 1)[0]
    prod = schur.product_via_operators(x, y, n, d)
    want = schur.chev_mul(x, y)
    bad = dict(prod)
    A = min(bad)
    bad[A] = bad[A] + laurent.ONE
    job.check_product("true product", prod, want, n, d)
    job.check_product("corrupted product", bad, want, n, d)


def wrong_dimension(job):
    true_dim = tensor.centralizer_dim

    def off_by_one(side, *args, **kwargs):
        return true_dim(side, *args, **kwargs) + (side == "hecke")

    tensor.centralizer_dim = off_by_one
    try:
        workloads.job_suite(job, "duality", workloads.cfg(2, 2))
    finally:
        tensor.centralizer_dim = true_dim


def main():
    gate = Gate()
    gate.run("product", corrupted_product)
    gate.run("duality n=2 d=2", wrong_dimension)
    failed = [name for job in gate.jobs for name, st in job.checks if st == "fail"]
    ok = (len(failed) == 2 and failed[0] == "corrupted product"
          and failed[1].startswith("flag-side commutant dimension"))
    print(json.dumps({"ok": ok, "failed": gate.failed, "attempted": gate.attempted,
                      "fail_ratio": gate.failed / gate.attempted, "failed_checks": failed}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
