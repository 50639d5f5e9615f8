"""Stabilized multiplication on integer matrices and the windowed completion.

The same closed-form product rules run here on matrices whose diagonal
entries may be negative (off-diagonals never are).  Two independent devices
make the limit computable:

* stabilization_check shifts a pair by p along the diagonal, multiplies in
  the honest finite algebra for several p, and fits one polynomial pattern
  G(v, v', t, t') that reproduces every run under v' = v^{-p}, t' = t^p.
  Binomials contribute denominators that are quantum factorials in v, so the
  observations are cleared by a fixed factorial multiple first; the cleared
  pattern is a genuine Laurent polynomial and the fit is exact linear
  algebra over Q, one sparse equation per shift and monomial.

* the completion is modelled by truncating diagonal supports to a window
  [-W, W]^n; a relation with f factors is asserted only on matrices whose
  diagonals keep a margin of f - 1 from the boundary, where truncation
  provably cannot lose contributions.

A window comparison reads only the matrices of reach (largest |diagonal
entry|) at most W - margin, and a left factor of Chevalley entry r moves
each diagonal entry by at most r.  So a product read only there needs only
the right terms of reach at most r beyond it (_window_mul).  The generator
transport suite cuts its products that way; the limit relation suite keeps
full products, since its report counts the boundary terms it skips.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import laurent, linalg, schur
from .laurent import ONE, VTPoly, elt_combo, elt_scale, mono
from .matrices import add as mat_add, co, diag, diag_of, is_stab, ro, unit as mat_unit, zero
from .uvt import _ev, pairing


class FitInconsistent(ArithmeticError):
    """The shifted products do not follow a single substitution pattern."""


# -- shifts ---------------------------------------------------------------------

def shift(A, p):
    """A + p I; ValueError if a row or column sum goes negative."""
    out = mat_add(A, diag((p,) * len(A)))
    if any(x < 0 for x in ro(out)) or any(x < 0 for x in co(out)):
        raise ValueError("shift leaves negative row/column sums: %r" % (out,))
    return out


# -- stabilized products ----------------------------------------------------------

class _Factor(dict):
    """A window element that a suite multiplies many times.  Each chev_mul
    step (schur.chev_left, schur.chev_right) is built the first time the
    factor is used on that side and then kept, and only for that side.  So
    is each cut of it (cut), with the right step of its own."""

    @cached_property
    def left(self):
        return schur.chev_left(self)

    @cached_property
    def right(self):
        return schur.chev_right(self)

    @cached_property
    def step(self):
        """The largest Chevalley entry r among the shapes of its terms, 0 for
        a diagonal factor: as a left factor it moves each diagonal entry of
        the right terms by at most r."""
        return max((shape[2] for _, shape, _, _ in self.left if shape), default=0)

    @cached_property
    def reach(self):
        return max(map(_reach, self), default=0)

    @cached_property
    def _cuts(self):
        return {}

    def cut(self, bound):
        """Its terms of reach <= bound, a _Factor kept per bound (itself when
        nothing is cut)."""
        if bound >= self.reach:
            return self
        out = self._cuts.get(bound)
        if out is None:
            out = self._cuts[bound] = _Factor(_interior(self, bound))
        return out


def _reach(M):
    """The largest |diagonal entry| of M: M keeps a margin m inside the window
    [-W, W]^n exactly when its reach is at most W - m."""
    return max(abs(M[i][i]) for i in range(len(M)))


def _interior(x, bound):
    """The terms of x on matrices of reach <= bound."""
    return {M: c for M, c in x.items() if _reach(M) <= bound}


def stab_mul(x, y):
    """Product of limit-algebra elements with Chevalley-shaped left support;
    a window factor (_Factor) brings the step it keeps for its side."""
    left = x.left if type(x) is _Factor else schur.chev_left(x)
    right = y.right if type(y) is _Factor else schur.chev_right(y)
    return schur.chev_prod(left, right, stab=True)


def _window_mul(x, y, bound=None):
    """stab_mul(x, y) for a window factor x; with `bound`, cut to what the
    matrices of reach <= bound read.  Each diagonal entry of a product term
    is within x.step of that of its right term, so only the right terms of
    reach <= bound + x.step are multiplied: the product is exact on reach
    <= bound when y is exact on reach <= bound + x.step, and is not to be
    read beyond.  Left terms are never cut.  The cut goes to the right
    operand, so every product of the suites still goes through stab_mul."""
    if bound is not None:
        bound += x.step
        y = y.cut(bound) if type(y) is _Factor else _interior(y, bound)
    return stab_mul(x, y)


# -- the weight window -------------------------------------------------------------

MAX_DIAGONALS = 2401  # `verify stab` guard on (2W + 1)^n, the diagonals of a window element


def over_guard(n, W):
    """The CLI's limit that a window of half-width W exceeds at n, as text, or None."""
    base, size = 2 * W + 1, 1
    for _ in range(n):  # stops once over: a large n makes the power itself slow
        size *= base
        if size > MAX_DIAGONALS:
            digits = n * math.log10(base)
            shown = "%d" % base ** n if digits < 18 else "about 10^%d" % digits
            return "stab guard: (2 window + 1)^n = %d^%d = %s diagonals, over %d" % (
                base, n, shown, MAX_DIAGONALS)


@dataclass(frozen=True)
class WeightWindow:
    W: int
    margin: int = 2

    def __post_init__(self):
        if self.W < 1 or self.margin < 0 or self.margin >= self.W:
            raise ValueError("need W >= 1 and 0 <= margin < W, got W=%d margin=%d" % (self.W, self.margin))

    def lambdas(self, n):
        return itertools.product(range(-self.W, self.W + 1), repeat=n)


def completion_element(A0, jvec, window):
    """Truncated completion element: the weighted sum of {A0 + D_lambda}.

    A0 must have zero diagonal; the weight of lambda is
    v^{sum lambda_k j_k} t^{sum lambda_k |j_k|}.
    """
    n = len(A0)
    if any(A0[i][i] for i in range(n)):
        raise ValueError("the off-diagonal part must have zero diagonal")
    if not is_stab(A0):
        raise ValueError("off-diagonal entries must be nonnegative")
    if len(jvec) != n:
        raise ValueError("jvec has %d entries, the matrix has %d rows" % (len(jvec), n))
    absj = [abs(j) for j in jvec]
    span = range(-window.W, window.W + 1)
    rows = [[row[:i] + (l,) + row[i + 1:] for l in span] for i, row in enumerate(A0)]
    # each weight is a unit monomial, built directly (no zero filter) and
    # shared by the diagonals that carry it
    weights, out = {}, {}
    for M, lam in zip(itertools.product(*rows), window.lambdas(n)):
        ab = sum(map(mul, lam, jvec)), sum(map(mul, lam, absj))
        wt = weights.get(ab)
        if wt is None:
            wt = weights[ab] = ONE.shift(*ab)
        out[M] = wt
    return out


def diagonal_weight(jvec, window, n):
    return completion_element(zero(n), jvec, window)


def e_limit(i, window, n):
    return completion_element(mat_unit(n, i, i + 1), (0,) * n, window)


def f_limit(i, window, n):
    return completion_element(mat_unit(n, i + 1, i), (0,) * n, window)


# -- the completion relation suites ---------------------------------------------------

class _WindowChecks:
    """Named window comparisons under the margin rule: a relation with f
    factors is compared only on matrices that keep a margin of f - 1, those
    of reach at most interior(f).  A failed comparison files its witness
    under its name in `witnesses`, when given: the first differing interior
    matrix and both coefficients.

    cmp compares lhs times lhs_scale with rhs times rhs_scale, each scale
    when given.  A nonzero scale keeps every key (there are no zero
    divisors), so a side is scaled after the interior filter, and the
    boundary terms it skips are never multiplied."""

    def __init__(self, window, witnesses=None):
        self.window = window
        self.witnesses = witnesses
        self.checks = []
        self.skipped = 0  # boundary matrices excluded from the comparisons
        self.reach = {}  # the reach of each compared matrix, taken once per matrix

    def interior(self, nfactors):
        """The largest reach compared for a relation of nfactors factors:
        W - max(margin, nfactors - 1)."""
        win = WeightWindow(self.window.W, max(self.window.margin, nfactors - 1))
        return win.W - win.margin

    def cmp(self, name, lhs, rhs, nfactors, lhs_scale=None, rhs_scale=None):
        keys = lhs.keys() | rhs.keys()
        reach, hi = self.reach, self.interior(nfactors)
        for M in keys - reach.keys():
            reach[M] = _reach(M)
        inner = {M for M in keys if reach[M] <= hi}
        self.skipped += len(keys) - len(inner)
        lhs, rhs = ({M: c if s is None else c * s for M, c in x.items() if M in inner}
                    for x, s in ((lhs, lhs_scale), (rhs, rhs_scale)))
        ok = lhs == rhs
        self.checks.append((name, ok))
        if not ok and self.witnesses is not None:
            M = min(M for M in set(lhs) | set(rhs) if lhs.get(M) != rhs.get(M))
            a, b = (laurent.to_text(x.get(M, laurent.ZERO)) for x in (lhs, rhs))
            self.witnesses[name] = {"matrix": [list(row) for row in M], "lhs": a, "rhs": b}


def _serre(X, Y, XY, YX, a, b, c, bound=None):
    """a XXY - b XYX + c YXX for window factors X, Y, built as
    X (a XY - b YX) + c Y (XX): five products where the nested form takes
    six, and the same element (so the same support) by bilinearity.  The
    products XY and YX are passed in, since the two Serre relations of a
    pair both read them.  With `bound`, the outer products are cut to it
    (_window_mul), so XY and YX must be exact to bound + X.step; XX is taken
    to bound + Y.step."""
    inner = None if bound is None else bound + Y.step
    return elt_combo((_window_mul(X, elt_combo((XY, a), (YX, -b)), bound), ONE),
                     (_window_mul(Y, _window_mul(X, X, inner), bound), c))


VT_MID = mono(1, 1) + mono(-1, 1)


def limit_relation_suite(n, window, witnesses=None):
    """The limit-algebra relation suite, compared on window interiors.

    Returns (checks, skipped): checks is a list of (name, ok); skipped counts
    boundary matrices excluded from each comparison.  Failed checks file
    witnesses in the dict `witnesses`, when given.  The weights Z and the
    Chevalley elements E, F are window factors (_Factor): each builds the
    chev_mul step of a side once, on its first product on that side.

    No product here is cut to the interior (_window_mul): `skipped` counts
    the boundary support of the full products, cancellations included, and
    a cut product has another boundary.  The two Serre relations of a pair
    share its products XY and YX (_serre).
    """
    suite = _WindowChecks(window, witnesses)
    jvecs = [_ev(n, 1), _ev(n, 2, -1), tuple(range(1, n + 1)), (-1,) * n]
    Z = {jv: _Factor(diagonal_weight(jv, window, n)) for jv in jvecs}
    E = {h: _Factor(e_limit(h, window, n)) for h in range(1, n)}
    F = {h: _Factor(f_limit(h, window, n)) for h in range(1, n)}
    for j1 in jvecs[:2]:
        for j2 in jvecs[2:]:
            suite.cmp("commuting weights %r %r" % (j1, j2),
                      stab_mul(Z[j1], Z[j2]), stab_mul(Z[j2], Z[j1]), 2)
    for h in range(1, n):
        for jv in jvecs:
            wt = mono(jv[h - 1] - jv[h], abs(jv[h - 1]) - abs(jv[h]))
            suite.cmp("weight past E_%d %r" % (h, jv),
                      stab_mul(Z[jv], E[h]), stab_mul(E[h], Z[jv]), 2, rhs_scale=wt)
            wt = mono(jv[h] - jv[h - 1], abs(jv[h]) - abs(jv[h - 1]))
            suite.cmp("weight past F_%d %r" % (h, jv),
                      stab_mul(Z[jv], F[h]), stab_mul(F[h], Z[jv]), 2, rhs_scale=wt)
        # t (E F - F E) (v - v^{-1}) = 0(e_h - e_{h+1}) - 0(e_{h+1} - e_h)
        comm = elt_combo((stab_mul(E[h], F[h]), ONE), (stab_mul(F[h], E[h]), -ONE))
        jplus = tuple(a - b for a, b in zip(_ev(n, h), _ev(n, h + 1)))
        jminus = tuple(-x for x in jplus)
        rhs = elt_combo((diagonal_weight(jplus, window, n), ONE),
                        (diagonal_weight(jminus, window, n), -ONE))
        suite.cmp("cartan commutator h=%d" % h, comm, rhs, 2,
                  lhs_scale=laurent.T * (mono(1, 0) - mono(-1, 0)))
    vt_mid_inv = mono(1, -1) + mono(-1, -1)
    for i in range(1, n - 1):
        for kind, G, mid, q in (("E", E, VT_MID, mono(0, 2)), ("F", F, vt_mid_inv, mono(0, -2))):
            X, Y = G[i], G[i + 1]
            XY, YX = stab_mul(X, Y), stab_mul(Y, X)
            suite.cmp("serre %s first i=%d" % (kind, i), _serre(X, Y, XY, YX, ONE, mid, q), {}, 3)
            suite.cmp("serre %s second i=%d" % (kind, i), _serre(Y, X, YX, XY, q, mid, ONE), {}, 3)
    return suite.checks, suite.skipped


def generator_transport_suite(n, window, witnesses=None):
    """The generator substitution E -> tE, F -> F, A_a -> 0(e_a), B_a -> 0(-e_a)
    carries the presented relations into window identities.

    The inverse relations are excluded: 0(e_a) 0(-e_a) is a genuine t-series,
    not the unit, because the completion weights carry |j| exponents.
    Failed checks file witnesses, and the generators are window factors,
    as in limit_relation_suite.  Only the checks are returned, so every
    product is cut to what its comparison reads (_window_mul): the outer
    products to the interior of their relation, the inner products of R4 to
    one step beyond it.  The compared coefficients are those of the full
    products.
    """
    suite = _WindowChecks(window, witnesses)
    E = {j: _Factor(elt_scale(e_limit(j, window, n), laurent.T)) for j in range(1, n)}
    F = {j: _Factor(f_limit(j, window, n)) for j in range(1, n)}
    A = {i: _Factor(diagonal_weight(_ev(n, i), window, n)) for i in range(1, n + 1)}
    B = {i: _Factor(diagonal_weight(_ev(n, i, -1), window, n)) for i in range(1, n + 1)}
    two, three = suite.interior(2), suite.interior(3)
    for i in range(1, n + 1):
        for j in range(1, n):
            br = pairing(n, i, j)
            suite.cmp("R2 transport A%d E%d" % (i, j), _window_mul(A[i], E[j], two),
                      _window_mul(E[j], A[i], two), 2, rhs_scale=mono(br, br))
            suite.cmp("R2 transport B%d E%d" % (i, j), _window_mul(B[i], E[j], two),
                      _window_mul(E[j], B[i], two), 2, rhs_scale=mono(-br, br))
    for i in range(1, n):
        for j in range(1, n):
            comm = elt_combo((_window_mul(E[i], F[j], two), ONE), (_window_mul(F[j], E[i], two), -ONE))
            rhs = {}
            if i == j:
                rhs = elt_combo((_window_mul(A[i], B[i + 1], two), ONE),
                                (_window_mul(B[i], A[i + 1], two), -ONE))
            suite.cmp("R3 transport %d,%d" % (i, j), comm, rhs, 2, lhs_scale=mono(1, 0) - mono(-1, 0))
    for i in range(1, n - 1):
        X, Y = E[i], E[i + 1]
        XY, YX = (_window_mul(*pair, three + X.step) for pair in ((X, Y), (Y, X)))
        suite.cmp("R4 transport i=%d" % i, _serre(X, Y, XY, YX, ONE, VT_MID, mono(0, 2), three), {}, 3)
    return suite.checks


# -- the stabilization fit --------------------------------------------------------------

def suggested_p0(A1, A2):
    shape = schur.chev_shape(A1)
    r = shape[2] if shape else 0
    return max(abs(A1[i][i]) for i in range(len(A1))) + max(
        abs(A2[i][i]) for i in range(len(A2))) + r


def _shifted_product(A1, A2, p):
    B = shift(A1, p)
    A = shift(A2, p)
    prod = schur.lmul_braced(B, {A: ONE})
    n = len(A1)
    out = {}
    for M, c in prod.items():
        z = mat_add(M, diag((-p,) * n))
        out[z] = c
    return out


def stabilization_check(A1, A2, p_list=(3, 4, 5)):
    """Fit one G(v, v', t, t') pattern to the shifted products.

    Returns {z: fitted pattern} with the pattern as {(a, b, k, l): Fraction}
    meaning g v^a t^b v'^k t'^l, after clearing by the quantum-factorial
    denominator; raises FitInconsistent when no bounded pattern exists.
    The v' = t' = 1 specialization is checked against the limit product.
    """
    if len(set(p_list)) < 3:
        raise ValueError("need at least three distinct shift values, got %r" % (tuple(p_list),))
    for name, M in (("A1", A1), ("A2", A2)):
        if not is_stab(M):
            raise ValueError("%s = %r has a negative off-diagonal entry" % (name, M))
    shape = schur.chev_shape(A1)
    if shape is None:
        raise ValueError("the left factor must be Chevalley-shaped")
    r = shape[2]
    p0 = suggested_p0(A1, A2)
    if min(p_list) < p0:
        raise ValueError("shift values must be at least the heuristic p0 = %d" % p0)
    n = len(A1)
    # clearing multiple: a shifted binomial is a product of r factors
    # ((p-dependent quantum integer) / (i)_v-bar), and each p-dependent
    # quantum integer is (v'^2 v^{-2c} - 1)/(v^{-2} - 1); multiplying by
    # this makes the observed coefficients honest Laurent polynomials
    clear = (mono(-2, 0) - 1) ** r
    for i in range(1, r + 1):
        clear = clear * laurent.bar(laurent.qint(i)) ** n
    runs = {p: _shifted_product(A1, A2, p) for p in p_list}
    support = {z for run in runs.values() for z in run}
    for run in runs.values():
        if set(run) != support:
            raise FitInconsistent("output support varies with the shift")
    limit = stab_mul({A1: ONE}, {A2: ONE})
    bound = 2 * r
    out = {}
    p1 = min(p_list)
    for z in sorted(support):
        obs = {p: clear * runs[p][z] for p in p_list}
        cands = sorted({(a + p1 * k, b - p1 * l, k, l) for (a, b) in obs[p1].c
                        for k in range(bound + 1) for l in range(bound + 1)})
        # shift p sends each candidate to one monomial, so each equation is the
        # set of candidates landing on one (p, monomial), observed or predicted
        rows, rhs = [], []
        for p in p_list:
            eqs = {mon: {} for mon in obs[p].c}
            for col, (a, b, k, l) in enumerate(cands):
                eqs.setdefault((a - p * k, b + p * l), {})[col] = 1
            for mon in sorted(eqs):
                rows.append(eqs[mon])
                rhs.append(obs[p].coeff(*mon))
        sol = linalg.frac_solve(rows, rhs)
        if sol is None:
            raise FitInconsistent("no bounded pattern reproduces the runs for %r" % (z,))
        pattern = {cands[col]: g for col, g in sol.items()}
        # v' = t' = 1 specialization must match the limit-algebra product
        spec = VTPoly({})
        for (a, b, k, l), g in pattern.items():
            spec = spec + mono(a, b, 1) * (int(g) if g.denominator == 1 else g)
        target = clear * limit.get(z, laurent.ZERO)
        if spec != target:
            raise FitInconsistent("v'=t'=1 specialization disagrees with the limit for %r" % (z,))
        out[z] = pattern
    if set(limit) - support:
        raise FitInconsistent("limit product has terms the runs never show")
    return out
