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
every pair of ids, built from bitmasks of the subspaces' vectors.  Each
flag is encoded once, in two roles.  On the left, V is its difference rows
D_i = table[v_i] - table[v_{i-1}]; on the right, W is its pairs
(w_{j-1}, w_j); here v_i, w_j are subspace ids and v_0 = w_0 = 0.  Entry
(i, j) of the orbit matrix is then D_i[w_{j-1}] - D_i[w_j]: two reads and
one subtraction.  orbit_matrix keeps both encodings of every flag it meets
in a bounded memo; the counting routine encodes every flag of its families
once per table, and builds the column of orbit matrices against each
representative right flag once, shared by every left flag whose type picks
it.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache

from . import laurent, linalg
from .matrices import check_matrix, co, dminusr, mat, ro

MAX_D = 3
MAX_P = 7
MAX_N = 4
SUBSPACE_MAX_D = 4


class GuardExceeded(ValueError):
    """A request beyond a desk-scale guard, raised by cli.run_suite."""


def check_prime(p):
    if p < 3 or p % 2 == 0 or any(p % k == 0 for k in range(3, int(p ** 0.5) + 1, 2)):
        raise ValueError("p must be an odd prime, got %r" % (p,))
    return p


def over_guard(p, d, n=1):
    """The CLI's desk-scale limit that (p, d, n) exceeds, as text; None within it."""
    if d > MAX_D or p > MAX_P or n > MAX_N:
        return "enumeration guard: d<=%d, p<=%d, n<=%d (got d=%d p=%d n=%d)" % (MAX_D, MAX_P, MAX_N, d, p, n)
    if d > SUBSPACE_MAX_D:  # the table of _subspace_index
        return "subspace enumeration guard d <= %d" % SUBSPACE_MAX_D


def rref(rows, p):
    """Canonical reduced row-echelon form over F_p, zero rows dropped: the
    basis of a linalg.ModIncrementalRank of the rows, sorted by pivot."""
    acc = linalg.ModIncrementalRank(p)
    for row in rows:
        acc.add({c: x for c, x in enumerate(row) if x})
    out = []
    for piv, tail in sorted(acc.tails.items()):
        row = [0] * len(rows[0])
        row[piv] = 1
        for c, x in tail.items():
            row[c] = x
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def _sum_dim(rows_a, rows_b, p):
    return len(rref(rows_a + rows_b, p))


def contains(big, small, p):
    """Is span(small) inside span(big)?"""
    return _sum_dim(big, small, p) == len(big)


def full_space(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def enum_subspaces(p, d, k):
    """All k-dimensional subspaces of F_p^d as canonical RREF tuples."""
    check_prime(p)
    if not 0 <= k <= d:
        raise ValueError("need 0 <= k <= d")
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
        subs = enum_subspaces(p, d, k)
        chains = [c + (s,) for c in chains for s in subs if not c or contains(s, c[-1], p)]
    return chains


def _family(kind, p, d, n):
    return [F for dims in _dim_vectors(kind, d, n) for F in _chains(p, d, dims)]


def enum_flags_X(p, d, n):
    """All n-step flags 0 = V_0 <= V_1 <= ... <= V_n = F_p^d."""
    check_prime(p)
    return _family("X", p, d, n)


def enum_flags_Y(p, d):
    """All complete flags (F_1, ..., F_d) with dim F_i = i."""
    check_prime(p)
    return _family("Y", p, d, 1)


@lru_cache(maxsize=32)
def _subspace_index(p, d):
    """Ids of all subspaces of F_p^d and the table of their sum dimensions.

    Returns ({subspace: id}, T) with T[a][b] = dim(a + b); the zero space
    has id 0.  Each subspace is stored as the bitmask of its p^k vectors, so
    p^dim(a cap b) is the popcount of mask_a & mask_b and
    dim(a + b) = dim a + dim b - dim(a cap b).  The table has one entry per
    pair of subspaces: 7.1e6 at (3, 5), past the CLI's guard
    d <= SUBSPACE_MAX_D (over_guard).
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


def _encode(vs, table):
    """Both roles of the flag with subspace ids vs: (rows, cols), its
    difference rows D_i = table[v_i] - table[v_{i-1}] and its pairs
    (v_{i-1}, v_i), with v_0 = 0."""
    cols = tuple(zip((0, *vs), vs))
    return tuple(tuple(map(operator.sub, table[b], table[a])) for a, b in cols), cols


def _orbit(rows, cols):
    """Orbit matrix of the pair (V, W) from V's rows and W's cols (_encode):
    entry (i, j) is D_i[w_{j-1}] - D_i[w_j]."""
    out = []
    for D in rows:
        out.append(tuple([D[u] - D[w] for u, w in cols]))
    return tuple(out)


@lru_cache(maxsize=1 << 11)
def _flag_code(F, p):
    """_encode of the flag F over F_p, each subspace brought to its
    canonical RREF first when its rows are not that already."""
    d = next((len(s[0]) for s in F if s), 0)
    ids, table = _subspace_index(p, d)
    vs = [*map(ids.get, F)]
    if None in vs:
        vs = [ids[rref(s, p)] for s in F]
    return _encode(vs, table)


def orbit_matrix(V, W, p):
    """Relative-position matrix of a flag pair (any mix of step counts).

    Entry (i, j) is dim (V_{i-1} + V_i cap W_j) / (V_{i-1} + V_i cap W_{j-1});
    by the modular law it is the second difference
    S(i-1, j) - S(i, j) - S(i-1, j-1) + S(i, j-1) of the sum dimensions
    S(i, j) = dim(V_i + W_j), read from the (p, d) table by subspace id.
    A subspace given by spanning rows that are not its canonical RREF is
    brought to it first.  The first pair in F_p^d builds the (p, d) table,
    which grows fast past d = SUBSPACE_MAX_D (see _subspace_index).
    """
    return _orbit(_flag_code(V, p)[0], _flag_code(W, p)[1])


def _encoded(ids, table, family):
    """_encode of each flag; every subspace must be canonical RREF already."""
    return [_encode([ids[s] for s in F], table) for F in family]


def _type_counts(v_rows, mid, right, columns, pick):
    """{C: Counter of (orbit(V, U), orbit(U, W)) over the middle flags U}, for
    each type C of the pairs (V, W); W is the representative reps[pick].

    v_rows encodes V, mid the middle flags and right the right flags
    (_encode; right is mid when the two families agree, and the types are
    then read from the row orbit(V, U) itself).  Each type keeps its first
    two right flags in enumeration order as reps.  columns maps the index
    of a representative W in right to its column [orbit(U, W) for U in
    mid], built on first use.
    """
    left = [_orbit(v_rows, cols) for _, cols in mid]
    row = left if right is mid else [_orbit(v_rows, cols) for _, cols in right]
    types = {}
    for j, C in enumerate(row):
        reps = types.setdefault(C, [])
        if len(reps) < 2:
            reps.append(j)
    out = {}
    for C, reps in types.items():
        j = reps[pick]
        col = columns.get(j)
        if col is None:
            col = columns[j] = [_orbit(rows, right[j][1]) for rows, _ in mid]
        out[C] = Counter(zip(left, col))
    return out


@lru_cache(maxsize=4)
def _products(p, d, n, kinds):
    """{(B, A): {C: count}} over every output type C, for the flag families
    kinds = (left, middle, right).  Memoized: the tables are shared and
    read-only by convention.

    Every type C is counted twice: from the standard flag (V_i spanned by the
    first dim V_i basis vectors) with the first representative right flag,
    and from the opposite flag (the last dim V_i basis vectors) with the
    last; the two counts must agree.  Flags are encoded once per table, and
    the column of orbit matrices against each representative right flag is
    built once and shared by every left flag that picks it.
    """
    ids, table = _subspace_index(p, d)
    mid = _encoded(ids, table, _family(kinds[1], p, d, n))
    right = mid if kinds[2] == kinds[1] else _encoded(ids, table, _family(kinds[2], p, d, n))
    full = full_space(d)
    columns = {}
    by_type = {}
    for dims in _dim_vectors(kinds[0], d, n):
        (std_v, _), (opp_v, _) = _encoded(ids, table, [tuple(full[:k] for k in dims),
                                                      tuple(full[d - k:] for k in dims)])
        std = _type_counts(std_v, mid, right, columns, 0)
        opp = _type_counts(opp_v, mid, right, columns, -1)
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


def orbit_types(p, d, n, kinds):
    """The orbit matrices of all pairs (V, W) with V in the kinds[0] family
    and W in the kinds[1] family, as a set.

    By transitivity the standard flag of each left dimension vector meets
    every type, so only those are paired with every right flag.
    """
    check_prime(p)
    ids, table = _subspace_index(p, d)
    full = full_space(d)
    left = _encoded(ids, table, [tuple(full[:k] for k in dims) for dims in _dim_vectors(kinds[0], d, n)])
    right = _encoded(ids, table, _family(kinds[1], p, d, n))
    return {_orbit(rows, cols) for rows, _ in left for _, cols in right}


def convolve_count(B, A, p, d, n):
    """Counting convolution of n-step flags: for each output type C, the
    number of middle flags U with orbit(V, U) = B and orbit(U, W) = A, on a
    representative pair (V, W) of type C.
    """
    check_matrix(B, n, d)
    check_matrix(A, n, d)
    if co(B) != ro(A):
        raise ValueError("co(B) = %r must equal ro(A) = %r" % (co(B), ro(A)))
    check_prime(p)
    return _products(p, d, n, ("X", "X", "X")).get((mat(B), mat(A)), {})


def conv_table(p, d, n, kinds=("X", "X", "X")):
    """Full table of counting products for the given flag families (left,
    middle, right): {(B, A): {C: count}} over every orbit type pair with a
    nonzero product.
    """
    check_prime(p)
    return _products(p, d, n, tuple(kinds))


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


def braced_counts_match(prod, B, A, tables):
    """Whether a braced product {B}{A} = prod ({C: VTPoly}) matches the flag
    counts of (B, A) in every table of {p: conv_table}: {M} is
    (v^{-1} t)^{dminusr(M)} e_M, so each term C moves to the e-basis by
    (v^{-1} t)^{dminusr(C) - dminusr(B) - dminusr(A)} before counts_match.
    """
    shift = dminusr(B) + dminusr(A)
    e_prod = {C: c * laurent.mono(shift - dminusr(C), dminusr(C) - shift) for C, c in prod.items()}
    return all(counts_match(e_prod, table.get((B, A), {}), p) for p, table in tables.items())
