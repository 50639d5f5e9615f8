"""Brute-force ground truth over small prime fields.

Flags are enumerated literally, orbits of pairs are classified by the matrix
of relative-position invariants, and convolution products are computed by
counting intermediate flags.  Everything here is deliberately naive; its only
job is to be unarguably correct so the closed-form multiplication rules can
be checked against it.

A subspace is its reduced row-echelon basis, a tuple of row tuples over
F_p (the zero space is the empty tuple).  An n-step flag is the tuple
(V_1, ..., V_n) with V_n the full space; V_0 = 0 stays implicit.  A complete
flag is (F_1, ..., F_d) with dim F_i = i.
"""

from __future__ import annotations

import itertools
import warnings
from functools import lru_cache

from . import laurent
from .matrices import co, ro

MAX_D = 3
MAX_P = 7
MAX_N = 4
SUBSPACE_MAX_D = 4


class GuardExceeded(ValueError):
    """Enumeration request beyond the configured desk-scale guards."""


def check_prime(p):
    if p < 3 or p % 2 == 0 or any(p % k == 0 for k in range(3, int(p ** 0.5) + 1, 2)):
        raise ValueError("p must be an odd prime, got %r" % (p,))
    return p


def _guard(p, d, n=1, allow_large=False):
    check_prime(p)
    if d > MAX_D or p > MAX_P or n > MAX_N:
        if allow_large:
            warnings.warn(
                "enumerating beyond the desk-scale guards (d=%d p=%d n=%d); "
                "expect combinatorial cost" % (d, p, n),
                stacklevel=3,
            )
            return
        raise GuardExceeded(
            "enumeration guard: d<=%d, p<=%d, n<=%d (got d=%d p=%d n=%d); "
            "pass allow_large=True to override at your own expense"
            % (MAX_D, MAX_P, MAX_N, d, p, n)
        )


def rref(rows, p):
    """Canonical reduced row-echelon form over F_p, zero rows dropped."""
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] % p), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r])


@lru_cache(maxsize=None)
def _sum_dim(rows_a, rows_b, p):
    return len(rref(rows_a + rows_b, p))


def contains(big, small, p):
    """Is span(small) inside span(big)?"""
    return _sum_dim(big, small, p) == len(big)


def full_space(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def enum_subspaces(p, d, k, allow_large=False):
    """All k-dimensional subspaces of F_p^d as canonical RREF tuples."""
    check_prime(p)
    if not 0 <= k <= d:
        raise ValueError("need 0 <= k <= d")
    if d > SUBSPACE_MAX_D and not allow_large:
        raise GuardExceeded("subspace enumeration guard d <= %d" % SUBSPACE_MAX_D)
    if k == 0:
        return [()]
    out = []
    for pivots in itertools.combinations(range(d), k):
        free = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, d)
            if c not in pivots
        ]
        for vals in itertools.product(range(p), repeat=len(free)):
            m = [[0] * d for _ in range(k)]
            for r, c in zip(range(k), pivots):
                m[r][c] = 1
            for (r, c), x in zip(free, vals):
                m[r][c] = x
            out.append(tuple(tuple(row) for row in m))
    return sorted(out)


def gaussian_binomial_count(p, d, k):
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def enum_flags_X(p, d, n, allow_large=False):
    """All n-step flags 0 = V_0 <= V_1 <= ... <= V_n = F_p^d."""
    _guard(p, d, n, allow_large)
    by_dim = {k: enum_subspaces(p, d, k, allow_large=True) for k in range(d + 1)}
    top = full_space(d)
    flags = []

    def grow(chain, step):
        if step == n:
            if chain[-1] == top:
                flags.append(tuple(chain))
            return
        cur = chain[-1] if chain else ()
        lo = len(cur)
        hi = d if step < n - 1 else d
        for k in range(lo, hi + 1):
            for sub in by_dim[k]:
                if step == n - 1 and sub != top:
                    continue
                if contains(sub, cur, p):
                    grow(chain + [sub], step + 1)

    grow([], 0)
    return flags


def enum_flags_Y(p, d, allow_large=False):
    """All complete flags (F_1, ..., F_d) with dim F_i = i."""
    _guard(p, d, 1, allow_large)
    by_dim = {k: enum_subspaces(p, d, k, allow_large=True) for k in range(d + 1)}
    flags = []

    def grow(chain, k):
        if k == d:
            flags.append(tuple(chain))
            return
        cur = chain[-1] if chain else ()
        for sub in by_dim[k + 1]:
            if contains(sub, cur, p):
                grow(chain + [sub], k + 1)

    grow([], 0)
    return flags


def orbit_matrix(V, W, p):
    """Relative-position matrix of a flag pair (any mix of step counts).

    Entry (i, j) is dim (V_{i-1} + V_i cap W_j) / (V_{i-1} + V_i cap W_{j-1});
    by the modular law it reduces to pairwise sum dimensions only.
    """
    vs = ((),) + tuple(V)
    ws = ((),) + tuple(W)

    def S(i, j):
        return _sum_dim(vs[i], ws[j], p)

    return tuple(
        tuple(
            S(i - 1, j) - S(i, j) - S(i - 1, j - 1) + S(i, j - 1)
            for j in range(1, len(ws))
        )
        for i in range(1, len(vs))
    )


def classify_pairs(left_flags, right_flags, p):
    """Group all pairs by orbit matrix; keeps up to two representatives each."""
    types = {}
    for V in left_flags:
        for W in right_flags:
            M = orbit_matrix(V, W, p)
            reps = types.setdefault(M, [])
            if len(reps) < 2:
                reps.append((V, W))
    return types


def convolve_count(B, A, p, d, n, kinds=("X", "X", "X"), allow_large=False, cross_check=True):
    """Counting convolution: for each output type C, the number of middle
    flags W with orbit(V, W) = B and orbit(W, V') = A, on a fixed
    representative pair (V, V') of type C.

    kinds gives the three flag families (left, middle, right); counts are
    checked on a second representative when one exists.
    """
    if co(B) != ro(A):
        raise ValueError("co(B) = %r must equal ro(A) = %r" % (co(B), ro(A)))
    _guard(p, d, n, allow_large)

    def family(kind):
        return enum_flags_X(p, d, n, allow_large) if kind == "X" else enum_flags_Y(p, d, allow_large)

    left = family(kinds[0])
    mid = family(kinds[1])
    right = family(kinds[2])
    types = classify_pairs(left, right, p)

    def count_on(V, W):
        c = 0
        for U in mid:
            if orbit_matrix(V, U, p) == B and orbit_matrix(U, W, p) == A:
                c += 1
        return c

    out = {}
    for C, reps in sorted(types.items()):
        if ro(C) != ro(B) or co(C) != co(A):
            continue
        cnt = count_on(*reps[0])
        if cross_check and len(reps) > 1:
            cnt2 = count_on(*reps[1])
            if cnt2 != cnt:
                raise AssertionError(
                    "convolution count depends on the representative for type %r: %d vs %d"
                    % (C, cnt, cnt2)
                )
        if cnt:
            out[C] = cnt
    return out


def conv_table(p, d, n, kinds=("X", "X", "X"), allow_large=False):
    """Full table of counting products for the given flag families.

    Returns {(B, A): {C: count}} over every orbit type pair that yields a
    nonzero product, computed from one classification pass: for each output
    type C with representative (V, V'), every middle flag U contributes one
    unit to the (orbit(V,U), orbit(U,V')) bucket.
    """
    _guard(p, d, n, allow_large)

    def family(kind):
        return enum_flags_X(p, d, n, allow_large) if kind == "X" else enum_flags_Y(p, d, allow_large)

    left = family(kinds[0])
    mid = family(kinds[1])
    right = family(kinds[2])
    types = classify_pairs(left, right, p)
    out = {}
    for C, reps in sorted(types.items()):
        V, W = reps[0]
        for U in mid:
            key = (orbit_matrix(V, U, p), orbit_matrix(U, W, p))
            out.setdefault(key, {}).setdefault(C, 0)
            out[key][C] += 1
    return out


def counts_match(prod, counts, p):
    """Whether an e-basis product {C: VTPoly} matches the flag counts {C: int} at v^2 = p.

    Every coefficient must be t-free with even v-powers and evaluate to the
    count of its C, and no counted C may be missing from the product.
    """
    for C, c in prod.items():
        try:
            vals = laurent.eval_q(c, p)
        except laurent.OddVPower:
            return False
        if set(vals) - {0} or vals.get(0, 0) != counts.get(C, 0):
            return False
    return not set(counts) - set(prod)


def convolution_report(B, A, p, d, n, kinds=("X", "X", "X")):
    """JSON-ready record of one counting comparison."""
    counts = convolve_count(B, A, p, d, n, kinds=kinds)
    return {
        "n": n,
        "d": d,
        "p": p,
        "B": [list(r) for r in B],
        "A": [list(r) for r in A],
        "counts": [
            {"C": [list(r) for r in C], "count": c} for C, c in sorted(counts.items())
        ],
    }
