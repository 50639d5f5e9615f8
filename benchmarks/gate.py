"""Correctness gate: every check a workload makes goes through one Gate.

A check is a (name, ok) pair.  Names starting with 'expect-fail' document
printed formulas the model refutes, so they count as passing when they fail
(the same rule as vtschur.report.Report).  A job that raises counts as one
failed check.  Each job keeps its ordered (name, status) list and the
serialized outputs it produced, so a run can be reduced to digests.
"""

from __future__ import annotations

import hashlib
import json
import traceback

from vtschur import hecke, schur
from vtschur.report import Report


def status(name, ok):
    """'pass', 'fail' or 'xfail', as in Report.to_json_dict."""
    if name.startswith("expect-fail") and not ok:
        return "xfail"
    return "pass" if Report.effective_status(name, ok) else "fail"


class Job:
    def __init__(self, name):
        self.name = name
        self.checks = []
        self.outputs = hashlib.sha256()

    def add(self, name, ok):
        self.checks.append((str(name), status(str(name), bool(ok))))

    def extend(self, pairs):
        for name, ok in pairs:
            self.add(name, ok)

    def add_report(self, rep):
        for name, ok, _witness in rep.checks:
            self.add(name, ok)

    def output(self, doc):
        """Fold one serialized output into the job's output digest."""
        self.outputs.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
        self.outputs.update(b"\n")

    def check_dim(self, name, got, want):
        """A dimension or count checked against its closed form."""
        self.add("%s %d" % (name, got), got == want)

    def check_product(self, name, got, want, n, d):
        """A schur product checked coefficient by coefficient."""
        self.output(schur.to_json(got, n, d))
        self.add(name, schur.clean(got) == schur.clean(want))

    def check_hecke(self, name, got, want, d):
        self.output(hecke.to_json(got, d))
        self.add(name, hecke.clean(got) == hecke.clean(want))

    def digest(self):
        checks = hashlib.sha256(json.dumps(self.checks, separators=(",", ":")).encode())
        return {
            "checks": len(self.checks),
            "check_digest": checks.hexdigest()[:16],
            "output_digest": self.outputs.hexdigest()[:16],
        }


class Gate:
    def __init__(self):
        self.jobs = []

    def run(self, name, fn, *args):
        """Run one job; an exception becomes one failed check."""
        job = Job(name)
        self.jobs.append(job)
        try:
            fn(job, *args)
        except Exception as exc:  # noqa: BLE001 - a crashing job is a failed check
            job.add("job raised %s: %s" % (type(exc).__name__, exc), False)
            traceback.print_exc()
        return job

    @property
    def attempted(self):
        return sum(len(job.checks) for job in self.jobs)

    @property
    def failed(self):
        return sum(1 for job in self.jobs for _name, st in job.checks if st == "fail")

    def digests(self):
        return {job.name: job.digest() for job in self.jobs}
