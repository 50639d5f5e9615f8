"""Run reports: deterministic JSON plus a human text rendering.

Checks whose name starts with 'expect-fail' invert their polarity: they
document printed formulas that the model refutes, so the suite passes when
they fail.  JSON output carries no timing and no notes (identical
configurations must serialize byte-identically); the text rendering shows
both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Report:
    suite: str
    config: dict
    checks: list = field(default_factory=list)
    elapsed: float = 0.0
    notes: dict = field(default_factory=dict)  # check index -> text lines under it

    def add(self, name, ok, witness=None):
        self.checks.append((str(name), bool(ok), witness))

    def note(self, text):
        """A line of detail under the last check, in the text rendering only."""
        self.notes.setdefault(len(self.checks) - 1, []).append(text)

    def extend(self, pairs, witnesses=None):
        """Add (name, ok) pairs, each with its witness in `witnesses`, if any."""
        for name, ok in pairs:
            self.add(name, ok, (witnesses or {}).get(name))

    @property
    def passed(self):
        return all(self.effective_status(name, ok) for name, ok, _ in self.checks)

    @staticmethod
    def effective_status(name, ok):
        if name.startswith("expect-fail"):
            return not ok
        return ok

    @classmethod
    def status(cls, name, ok):
        """'pass', 'fail', or 'xfail' for an expect-fail check that failed."""
        if not cls.effective_status(name, ok):
            return "fail"
        return "xfail" if name.startswith("expect-fail") else "pass"

    def to_json_dict(self):
        checks = []
        for name, ok, witness in self.checks:
            status = self.status(name, ok)
            entry = {"name": name, "status": status}
            if witness is not None and status == "fail":
                entry["witness"] = witness
            checks.append(entry)
        return {
            "schema": 1,
            "suite": self.suite,
            "config": {k: self.config[k] for k in sorted(self.config)},
            "passed": self.passed,
            "checks": checks,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"),
                          default=_json_fraction) + "\n"

    def to_text(self):
        lines = ["suite %s: %s (%.2fs)" % (self.suite, "PASS" if self.passed else "FAIL", self.elapsed)]
        for i, (name, ok, witness) in enumerate(self.checks):
            status = self.status(name, ok)
            lines.append("  [%s] %s" % (_TEXT_STATUS[status], name))
            if witness is not None and status == "fail":
                lines.append("        witness: %s" % (witness,))
            lines += ["        %s" % text for text in self.notes.get(i, ())]
        return "\n".join(lines) + "\n"


_TEXT_STATUS = {"pass": "ok", "fail": "FAIL", "xfail": "xfail"}


def _json_fraction(x):
    """A Fraction in a JSON report: an integer when integral, else "num/den"."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
    raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)
