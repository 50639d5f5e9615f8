"""Exact rational and modular linear algebra at desk scale.

`frac_solve` solves sparse systems over Q (the stabilization fit) by
Gauss-Jordan elimination on {column: coefficient} rows.  `IncrementalRank`
is a dense row-echelon accumulator over Q, viable only for a few hundred
unknowns; the tests use it (and a Fraction rank built the same way) as the
exact reference the modular path is compared against.

Commutant dimensions are certified mod p by a sandwich: ranks can only
drop under reduction mod p, so the modular rank of a family known to lie in
the commutant is a lower bound, and nullities can only grow, so the modular
nullity of the integer constraint system is an upper bound.  When the two
meet, the dimension is pinned exactly.

The constraint system is sparse and block diagonal over the connected
components of its unknowns, so its rank is summed over the components
(`component_rank`).  Lower bounds come from one span closure
(`mod_span_closure`) that grows reduced row-echelon bases a block of rows
at a time (`ModIncrementalRank`).

Residues mod p are float64: products of two stay below 2^53 for p < 2^26,
and a matrix product is exact while its inner dimension times (p-1)^2 stays
below 2^53 (Dumas, Giorgi and Pernet, "FFLAS and FFPACK", ACM TOMS 35(3),
2008); `mul_mod` chunks longer inner dimensions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

CERT_PRIMES = (2000003, 2000029)

# entries per block of products in a span closure (bounds its memory)
PRODUCT_BLOCK = 1 << 22


class IncrementalRank:
    """Row-echelon accumulator over Q; add rows one by one."""

    def __init__(self):
        self.basis = []  # list of (pivot index, row)

    def add(self, row):
        """Returns True if the row enlarged the span."""
        row = list(row)
        for piv, brow in self.basis:
            f = row[piv]
            if f:
                row = [x - f * y for x, y in zip(row, brow)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            return False
        inv = Fraction(1) / row[piv]
        self.basis.append((piv, [x * inv for x in row]))
        return True

    @property
    def rank(self):
        return len(self.basis)


def frac_solve(rows, rhs):
    """Solve sum_c row[c] x_c = b exactly for each row, b in zip(rows, rhs).

    Rows are sparse {column: coefficient} dicts; the system may be
    overdetermined.  Gauss-Jordan elimination keeps the reduced row-echelon
    form of the rows seen so far, each pivot the smallest column of its row;
    that form is unique, so the pivots are those of elimination in column
    order.  Free unknowns are 0.  Returns {column: value} for the nonzero
    values, in column order, or None when the system is inconsistent.
    """
    basis, value = {}, {}  # pivot column -> reduced row (1 at the pivot), its rhs
    for row, b in zip(rows, rhs):
        row, b = {c: Fraction(x) for c, x in row.items() if x}, Fraction(b)
        for c in [c for c in row if c in basis]:
            f = row[c]
            _sub_scaled(row, f, basis[c])
            b -= f * value[c]
        if not row:
            if b:
                return None
            continue
        piv = min(row)
        inv = 1 / row[piv]
        row, b = {c: x * inv for c, x in row.items()}, b * inv
        for c, other in basis.items():
            f = other.get(piv)
            if f:
                _sub_scaled(other, f, row)
                value[c] -= f * b
        basis[piv], value[piv] = row, b
    return {c: value[c] for c in sorted(basis) if value[c]}


def _sub_scaled(row, f, src):
    """row -= f * src on sparse rows, dropping the entries that cancel."""
    for c, y in src.items():
        x = row.get(c, 0) - f * y
        if x:
            row[c] = x
        else:
            row.pop(c, None)


# -- modular arithmetic on float64 arrays -------------------------------------

def exact_inner(p):
    """Longest inner dimension of a float64 product of residues mod p that is exact."""
    return (2 ** 53 - 1) // (p - 1) ** 2


def mul_mod(a, b, p):
    """(a @ b) mod p for float64 arrays of residues in [0, p), batched like np.matmul.

    The inner dimension is split into chunks of at most exact_inner(p).
    """
    step = exact_inner(p)
    k = a.shape[-1]
    out = np.matmul(a[..., :step], b[..., :step, :]) % p
    for lo in range(step, k, step):
        out += np.matmul(a[..., lo:lo + step], b[..., lo:lo + step, :]) % p
        out %= p
    return out


def _rref(m, p):
    """Gauss-Jordan elimination mod p of the rows of m, in order.

    Returns (rows, pivots): a basis of the row space with a 1 at each row's
    pivot and 0 there in the other rows; row k comes from the k-th row of m
    independent of the rows before it.
    """
    m = m[m.any(axis=1)]
    pivots = []
    kept = []
    for i in range(m.shape[0]):
        nz = np.flatnonzero(m[i])
        if nz.size == 0:
            continue
        c = int(nz[0])
        m[i] = m[i] * pow(int(m[i, c]), -1, p) % p
        col = m[:, c].copy()
        col[i] = 0
        rows = np.flatnonzero(col)
        if rows.size:
            m[rows] = (m[rows] - np.outer(col[rows], m[i])) % p
        pivots.append(c)
        kept.append(i)
    return m[kept], np.array(pivots, dtype=np.intp)


class ModIncrementalRank:
    """Reduced row-echelon basis over F_p, grown a block of rows at a time.

    Rows are float64 residues.  The basis has a 1 at each pivot column of
    its own row and 0 there in every other row.
    """

    def __init__(self, ncols, p):
        self.p = p
        self.ncols = ncols
        self.basis = np.zeros((0, ncols))
        self.pivots = np.zeros(0, dtype=np.intp)

    def add(self, rows):
        """Add a block of rows; returns by how much the rank grew.

        The block is reduced against the basis in one product, then within
        itself; its independent rows are appended (basis[-grew:]), and the
        older rows are cleared at their pivots.
        """
        p = self.p
        v = np.asarray(rows, dtype=np.float64).reshape(-1, self.ncols) % p
        v = (v - mul_mod(v[:, self.pivots], self.basis, p)) % p
        new, piv = _rref(v, p)
        if piv.size:
            self.basis = (self.basis - mul_mod(self.basis[:, piv], new, p)) % p
            self.basis = np.concatenate([self.basis, new])
            self.pivots = np.concatenate([self.pivots, piv])
        return piv.size

    @property
    def rank(self):
        return self.pivots.size


def modular_rank(rows, ncols, p):
    """Rank mod p of the rows of a 2-D integer array (or nested lists of ints)."""
    return _rref((np.asarray(rows).reshape(-1, ncols) % p).astype(np.float64), p)[1].size


# -- commutants ------------------------------------------------------------------

def commutant_constraint_rows(mats, p):
    """Sylvester system of {X : X M = M X for every M}, as sparse entries mod p.

    mats are N x N float64 residue arrays; the unknown X is flattened row
    major, and constraint (i, j) of the g-th matrix is row g N^2 + i N + j.
    Returns (rows, cols, vals): the nonzero entries, duplicates summed.
    """
    N = mats[0].shape[0] if mats else 0
    NN = N * N
    ar = np.arange(N)[:, None]
    keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for g, M in enumerate(mats):
        k, j = np.nonzero(M)
        x = M[k, j]
        base = g * NN
        # (X M)[i, j] = sum_k X[i, k] M[k, j]
        keys.append(((base + ar * N + j) * NN + ar * N + k).ravel())
        vals.append(np.broadcast_to(x, (N, x.size)).ravel())
        # (M X)[i, j] = sum_k M[i, k] X[k, j], with (i, k) running over the nonzeros
        keys.append(((base + k * N + ar) * NN + j * N + ar).ravel())
        vals.append(np.broadcast_to(p - x, (N, x.size)).ravel())
    keys, inv = np.unique(np.concatenate(keys), return_inverse=True)
    vals = np.bincount(inv, weights=np.concatenate(vals), minlength=keys.size) % p
    keep = vals != 0
    keys = keys[keep]
    return keys // max(NN, 1), keys % max(NN, 1), vals[keep]


def components(rows, cols, ncols):
    """Connected components of the unknowns, two being joined when a row uses both.

    Returns a label per unknown (the smallest unknown of its component),
    by min-label propagation over the rows with pointer jumping.
    """
    label = np.arange(ncols)
    nrows = int(rows.max()) + 1
    while True:
        low = np.full(nrows, ncols)
        np.minimum.at(low, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, low[rows])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def component_rank(rows, cols, vals, ncols, p):
    """Rank mod p of a sparse system given by its nonzero entries.

    A row with a single entry forces its unknown to 0: each such unknown
    adds 1 to the rank and leaves the system, until no such row is left.
    The rest is block diagonal over the components of its unknowns, so its
    rank is the sum of the blocks' ranks (modular_rank on each).
    """
    rank = 0
    while rows.size:
        single = np.bincount(rows)[rows] == 1
        if not single.any():
            break
        dead = np.zeros(ncols, dtype=bool)
        dead[cols[single]] = True
        rank += int(dead.sum())
        keep = ~dead[cols]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if rows.size == 0:
        return rank
    comp = components(rows, cols, ncols)[cols]
    order = np.argsort(comp, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(comp[order])) + 1):
        r_ids, r_loc = np.unique(rows[idx], return_inverse=True)
        c_ids, c_loc = np.unique(cols[idx], return_inverse=True)
        dense = np.zeros((r_ids.size, c_ids.size))
        dense[r_loc, c_loc] = vals[idx]
        rank += modular_rank(dense, c_ids.size, p)
    return rank


def commutant_upper(mats, N, p):
    """Nullity mod p of the commutant constraints of mats (an upper bound)."""
    rows, cols, vals = commutant_constraint_rows(mats, p)
    return N * N - component_rank(rows, cols, vals, N * N, p)


def mod_span_closure(seeds, multipliers, p, grade, stop=None):
    """F_p-rank of the span of words, closing the seeds under left multiplication.

    seeds and multipliers are N x N residue arrays.  `grade` labels the N^2
    entries (row-major) so that every word is supported on one label: the
    span is the direct sum of its graded pieces, each with its own basis on
    its own columns (a product spread over two labels raises ValueError).
    Each round multiplies the basis rows the last round added by every
    multiplier and adds the products, one block per label, until a round
    adds nothing or the rank reaches `stop`.  Returns (rank, rounds).
    """
    N = seeds[0].shape[0]
    if N > exact_inner(p):
        raise ValueError("products of %d x %d matrices are not exact in float64 mod %d" % (N, N, p))
    order = np.argsort(grade, kind="stable")
    cols = {int(grade[c[0]]): c for c in np.split(order, np.flatnonzero(np.diff(grade[order])) + 1)}
    accs = {c: ModIncrementalRank(c_cols.size, p) for c, c_cols in cols.items()}
    rank = rounds = 0
    products = [np.stack(seeds)]
    while True:
        pieces = {}
        for P in products:
            P = P.reshape(len(P), N * N)
            P = P[P.any(axis=1)]
            lab = grade[(P != 0).argmax(axis=1)]
            if ((P != 0) & (grade != lab[:, None])).any():
                raise ValueError("a product is not homogeneous for the grading")
            for c in sorted(set(lab.tolist())):  # plain np.unique imports numpy.ma
                pieces.setdefault(c, []).append(P[lab == c][:, cols[c]] % p)
        new = []
        for c, blocks in pieces.items():
            grew = accs[c].add(np.concatenate(blocks))
            if grew:
                rows = np.zeros((grew, N * N))
                rows[:, cols[c]] = accs[c].basis[-grew:]
                new.append(rows.reshape(grew, N, N))
                rank += grew
                if rank == stop:
                    return rank, rounds
        if not new:
            return rank, rounds
        frontier = np.concatenate(new)
        step = max(1, PRODUCT_BLOCK // (N * N))
        products = (np.matmul(G, frontier[lo:lo + step])  # exact: N (p-1)^2 < 2^53
                    for G in multipliers for lo in range(0, len(frontier), step))
        rounds += 1
