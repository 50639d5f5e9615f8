"""Counting ground truth over small prime fields.

Flags are enumerated literally, orbits of pairs are classified by the matrix
of relative-position invariants, and convolution products are computed by
counting intermediate flags.  GL_d(F_p) is transitive on the flags of one
dimension vector, so every orbit type is reached from a fixed left flag:
the standard flag, spanned by the first basis vectors, and again from the
opposite flag, spanned by the last ones.  Each count is taken on both and
must agree.  Its only job is to be unarguably correct so the closed-form
multiplication rules can be checked against it.

A subspace is its reduced row-echelon basis, a tuple of row tuples over
F_p (the zero space is the empty tuple).  An n-step flag is the tuple
(V_1, ..., V_n) with V_n the full space; V_0 = 0 stays implicit.  A complete
flag is (F_1, ..., F_d) with dim F_i = i.

Orbit matrices are read from integers: once per (p, d), every subspace of
F_p^d gets an id (the zero space 0) and one table holds dim(a + b) for
every pair of ids, built from bitmasks of the subspaces' vectors.  An orbit
matrix is then a second difference of table entries.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from functools import lru_cache

from . import laurent
from .matrices import co, mat, ro

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


@lru_cache(maxsize=1 << 16)
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


def _dim_vectors(kind, d, n):
    """Dimension vectors of a flag family: n-step flags (X) or complete flags (Y)."""
    if kind == "Y":
        return [tuple(range(1, d + 1))]
    return [v + (d,) for v in itertools.combinations_with_replacement(range(d + 1), n - 1)]


def _chains(p, d, dims):
    """All flags V_1 <= V_2 <= ... of F_p^d with dim V_i = dims[i], grown a step at a time."""
    chains = [()]
    for k in dims:
        subs = enum_subspaces(p, d, k, allow_large=True)
        chains = [c + (s,) for c in chains for s in subs if not c or contains(s, c[-1], p)]
    return chains


def _family(kind, p, d, n):
    return [F for dims in _dim_vectors(kind, d, n) for F in _chains(p, d, dims)]


def enum_flags_X(p, d, n, allow_large=False):
    """All n-step flags 0 = V_0 <= V_1 <= ... <= V_n = F_p^d."""
    _guard(p, d, n, allow_large)
    return _family("X", p, d, n)


def enum_flags_Y(p, d, allow_large=False):
    """All complete flags (F_1, ..., F_d) with dim F_i = i."""
    _guard(p, d, 1, allow_large)
    return _family("Y", p, d, 1)


@lru_cache(maxsize=32)
def _subspace_index(p, d):
    """Ids of all subspaces of F_p^d and the table of their sum dimensions.

    Returns ({subspace: id}, T) with T[a][b] = dim(a + b); the zero space
    has id 0.  Each subspace is stored as the bitmask of its p^k vectors, so
    p^dim(a cap b) is the popcount of mask_a & mask_b and
    dim(a + b) = dim a + dim b - dim(a cap b).  The table has one entry per
    pair of subspaces, so d > SUBSPACE_MAX_D raises GuardExceeded.
    """
    subs = [s for k in range(d + 1) for s in enum_subspaces(p, d, k)]
    weights = [p ** j for j in range(d)]
    masks = []
    for s in subs:
        vectors = [(0,) * d]
        for row in s:
            vectors = [tuple((x + c * y) % p for x, y in zip(v, row)) for v in vectors for c in range(p)]
        masks.append(sum(1 << sum(w * x for w, x in zip(weights, v)) for v in vectors))
    log_p = {p ** k: k for k in range(d + 1)}
    dims = [len(s) for s in subs]
    table = [
        [da + db - log_p[(ma & mb).bit_count()] for db, mb in zip(dims, masks)]
        for da, ma in zip(dims, masks)
    ]
    return {s: i for i, s in enumerate(subs)}, table


def orbit_matrix(V, W, p):
    """Relative-position matrix of a flag pair (any mix of step counts).

    Entry (i, j) is dim (V_{i-1} + V_i cap W_j) / (V_{i-1} + V_i cap W_{j-1});
    by the modular law it is the second difference
    S(i-1, j) - S(i, j) - S(i-1, j-1) + S(i, j-1) of the sum dimensions
    S(i, j) = dim(V_i + W_j), read from the (p, d) table by subspace id.
    A subspace given by spanning rows that are not its canonical RREF is
    brought to it first.  Flags in F_p^d with d > SUBSPACE_MAX_D raise
    GuardExceeded.
    """
    d = 0
    for s in (*V, *W):
        if s:
            d = len(s[0])
            break
    ids, table = _subspace_index(p, d)
    vs = [*map(ids.get, V)]
    ws = [0, *map(ids.get, W)]
    if None in vs or None in ws:
        vs = [ids[rref(s, p)] for s in V]
        ws = [0] + [ids[rref(s, p)] for s in W]
    cols = list(zip(ws, ws[1:]))
    above = table[0]
    out = []
    for i in vs:
        below = table[i]
        out.append(tuple([above[w] - below[w] - above[u] + below[u] for u, w in cols]))
        above = below
    return tuple(out)


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


def _type_counts(V, mid, right, p, pick):
    """{C: Counter of (orbit(V, U), orbit(U, W)) over the middle flags U}, for
    each type C of the pairs (V, W); W is the representative reps[pick]."""
    left = [orbit_matrix(V, U, p) for U in mid]
    return {
        C: Counter(zip(left, (orbit_matrix(U, reps[pick][1], p) for U in mid)))
        for C, reps in classify_pairs([V], right, p).items()
    }


def _products(p, d, n, kinds, vectors):
    """{(B, A): {C: count}} over the output types C whose left flags have a
    dimension vector in vectors.

    Every type C is counted twice: from the standard flag (V_i spanned by the
    first dim V_i basis vectors) with the first representative right flag,
    and from the opposite flag (the last dim V_i basis vectors) with the
    last; the two counts must agree.
    """
    mid = _family(kinds[1], p, d, n)
    right = _family(kinds[2], p, d, n)
    full = full_space(d)
    by_type = {}
    for dims in vectors:
        std = _type_counts(tuple(full[:k] for k in dims), mid, right, p, 0)
        opp = _type_counts(tuple(full[d - k:] for k in dims), mid, right, p, -1)
        for C in sorted(set(std) | set(opp)):
            a, b = std.get(C, Counter()), opp.get(C, Counter())
            if a != b:
                key = next(k for k in a.keys() | b.keys() if a[k] != b[k])
                raise AssertionError(
                    "convolution count depends on the representative: type %r, (B, A) = %r: %d vs %d"
                    % (C, key, a[key], b[key])
                )
        by_type.update(std)
    out = {}
    for C in sorted(by_type):
        for key, cnt in by_type[C].items():
            out.setdefault(key, {})[C] = cnt
    return out


def convolve_count(B, A, p, d, n, allow_large=False):
    """Counting convolution of n-step flags: for each output type C, the
    number of middle flags U with orbit(V, U) = B and orbit(U, W) = A, on a
    representative pair (V, W) of type C.
    """
    for M in (B, A):
        if len(M) != n or any(len(row) != n or min(row) < 0 for row in M) or sum(ro(M)) != d:
            raise ValueError("need an n x n natural matrix summing to d=%d (n=%d), got %r" % (d, n, M))
    if co(B) != ro(A):
        raise ValueError("co(B) = %r must equal ro(A) = %r" % (co(B), ro(A)))
    _guard(p, d, n, allow_large)
    vector = tuple(itertools.accumulate(ro(B)))
    return _products(p, d, n, ("X", "X", "X"), [vector]).get((mat(B), mat(A)), {})


def conv_table(p, d, n, kinds=("X", "X", "X"), allow_large=False):
    """Full table of counting products for the given flag families (left,
    middle, right): {(B, A): {C: count}} over every orbit type pair with a
    nonzero product.
    """
    _guard(p, d, n, allow_large)
    return _products(p, d, n, kinds, _dim_vectors(kinds[0], d, n))


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
