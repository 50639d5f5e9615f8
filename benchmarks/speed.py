"""Puts a pass's times at a reference speed of the host.

The benchmark host's CPU speed swings by up to 1.7x, in spells from under
a second to longer than a whole run (see NOTES.md, "Bounds and the
machine"), so a raw job time says as much about the host as about vtschur.
While a pass runs, a Sampler runs a fixed kernel every INTERVAL_S from a
SIGALRM handler and records how long each call took.  The time of a job is
then taken without the kernel calls that fell in it, and multiplied by
REF_KERNEL_S over the kernel's mean time during the job: the job's time at
the reference speed.  A product request, a few milliseconds long, is
scaled instead by the kernel calls made right before and right after it.

The kernel does what vtschur's hot loops do -- products of dict-of-exponent
polynomials with big integer coefficients, and Fraction row reduction --
in the benchmark's own code, so a change to vtschur never changes it.  A
smaller, cache-resident kernel followed the host's spells less closely
(NOTES.md).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The kernel's time on the 2-vCPU build VM in its slower, more common state
# (3.4-3.6 ms; 2.0-2.3 ms in its fast state).  It only sets the scale of the
# reported seconds: with it, a time at the reference speed is close to the
# raw time on that VM in that state.
REF_KERNEL_S = 0.0035
INTERVAL_S = 0.1
# A window holding fewer samples than this is read from the samples nearest
# to its middle.
NEAR = 5

_POLY = {(i % 9 - 4, (5 * i) % 7 - 3): ((i * 7919) ** 3) % (1 << 45) - (1 << 44) for i in range(40)}
_SMALL = dict(list(_POLY.items())[:8])
_MATRIX = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 5) for j in range(7)] for i in range(7)]


def _poly_mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def kernel():
    prod = _poly_mul(_poly_mul(_POLY, _POLY), _SMALL)
    rows = [list(row) for row in _MATRIX]
    for c in range(len(rows)):
        if rows[c][c]:
            for i in range(c + 1, len(rows)):
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return len(prod), rows[-1][-1]


class Sampler:
    """Times kernel() every INTERVAL_S of wall time between start() and stop(),
    and around every request run through timed()."""

    def __init__(self):
        self.samples = []  # (start, end) of every kernel call, in start order
        self.requests = []  # (start, end, kernel time before, kernel time after)

    def _call(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        # insort, not append: a tick can land inside timed()'s own call
        bisect.insort(self.samples, (t0, t1))
        return t1 - t0

    def _tick(self, _signum, _frame):
        self._call()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """fn(*args), timed between two kernel calls of its own.

        A request lasts milliseconds, shorter than the spells, so the
        kernel right before and right after it gives its speed.
        """
        before = self._call()
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.requests.append((t0, t1, before, self._call()))
        return out

    def latencies(self):
        """Every timed() request's time at the reference speed.

        The slower of the two kernel calls sets the scale: when a fast spell
        begins or ends during a request, the faster call does not describe
        it, and scaling by the mean made spuriously slow requests (the p90
        of 50 requests moved by 12% from pass to pass, against 7%).
        """
        return [self.raw(a, b) * REF_KERNEL_S / max(before, after)
                for a, b, before, after in self.requests]

    def kernel_ms(self):
        return 1000 * statistics.median(e - s for s, e in self.samples)

    def _inside(self, a, b):
        return bisect.bisect_left(self.samples, (a,)), bisect.bisect_left(self.samples, (b,))

    def raw(self, a, b):
        """Seconds from a to b, less the kernel calls that started in between."""
        lo, hi = self._inside(a, b)
        return b - a - sum(e - s for s, e in self.samples[lo:hi])

    def at_reference(self, a, b):
        """raw(a, b) at the reference speed: scaled by the kernel's mean time
        over the calls in the window, or the NEAR calls nearest its middle."""
        lo, hi = self._inside(a, b)
        if hi - lo < NEAR:
            mid = bisect.bisect_left(self.samples, ((a + b) / 2,))
            lo = max(0, min(mid - NEAR // 2, len(self.samples) - NEAR))
            hi = lo + NEAR
        speed = statistics.mean(e - s for s, e in self.samples[lo:hi])
        return self.raw(a, b) * REF_KERNEL_S / speed
