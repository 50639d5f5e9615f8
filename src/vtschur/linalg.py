"""Exact rational and modular linear algebra at desk scale.

One sparse Gauss-Jordan accumulator, `ModIncrementalRank`, does every
elimination, over F_p (a prime p, residues as entries) or over Q (p = None,
Fraction entries); only its field operations depend on p.  It keeps the
reduced row-echelon form of {column: entry} rows, each pivot the smallest
column of its row.  `frac_solve` solves sparse systems over Q (the
stabilization fit) on it, each row augmented by its right-hand side at a
column after every unknown.  `IncrementalRank` is a dense row-echelon
accumulator over Q, viable only for a few hundred unknowns; the tests use
it (and a Fraction rank built the same way) as the exact reference the
sparse one is compared against.

Commutant dimensions are certified mod p by a sandwich: ranks can only
drop under reduction mod p, so the modular rank of a family known to lie in
the commutant is a lower bound, and nullities can only grow, so the modular
nullity of the integer constraint system is an upper bound.  When the two
meet, the dimension is pinned exactly.

Both bounds are ranks mod p of sparse rows of Python ints, grown by the
accumulator (also the canonical form of a subspace in flags.rref).  The
upper bound (`commutant_upper`) takes as unknowns only the X[i, j] whose
indices share a Cartan class, the tuple of entries of the diagonal
matrices at i: the diagonal matrices commute with X exactly when X is 0
between classes, so they add no rows.  The rows of the other matrices on
those unknowns go in by descending largest column (see `modular_rank`).
`eigen_nullity` is the dimension of a common eigenspace, on N unknowns,
for upper bounds that a module argument reduces to eigenvectors.  The
lower bound closes seed words under left multiplication by the generators
(`mod_span_closure`), a word being a sparse row over the N^2 entries of an
N x N matrix; left multiplication keeps each column in its column, so
seeds that are columns of the identity close only those columns.  The
words and the constraints respect the weight blocks of tensor space, and
sparse rows keep the blocks apart with no bookkeeping: elimination only
ever combines rows that share a column.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

CERT_PRIMES = (2000003, 2000029)


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


# -- sparse reduced row-echelon form ----------------------------------------------

class ModIncrementalRank:
    """Reduced row-echelon basis of sparse {column: entry} rows over F_p or Q.

    The field is F_p for a prime p, with residues as entries, or Q for
    p = None, with Fractions.  Each basis row has a 1 at its pivot column,
    where every other basis row is 0; `tails` holds each row without its
    pivot entry.  `rows_at` indexes, for each column, the pivots of the
    tails with an entry there, so a new pivot clears only those rows.
    """

    def __init__(self, p):
        self.p = p
        self.tails = {}  # pivot column -> {column: entry} off the pivots
        self.rows_at = {}  # column -> pivots whose tails have an entry there

    def add(self, row):
        """Add a row of ints or, over Q, Fractions ({column: value}, read only).

        Returns the new basis row (a fresh dict) if the row enlarged the
        span, else None.  The pivot of a new row is its smallest column.
        """
        p, tails, rows_at = self.p, self.tails, self.rows_at
        row = dict(row)
        # the tails are 0 at every pivot: subtracting them leaves the row's
        # pivot entries as they were
        for c in [c for c in row if c in tails]:
            f = row.pop(c)
            for c2, y in tails[c].items():
                row[c2] = row.get(c2, 0) - f * y
        if p:
            row = {c: x % p for c, x in row.items() if x % p}
        else:
            row = {c: x for c, x in row.items() if x}
        if not row:
            return None
        piv = min(row)
        if p:
            inv = pow(row.pop(piv), -1, p)
            tail = {c: x * inv % p for c, x in row.items()}
        else:
            inv = 1 / Fraction(row.pop(piv))
            tail = {c: x * inv for c, x in row.items()}
        for q in rows_at.pop(piv, ()):
            other = tails[q]
            f = other.pop(piv)
            for c, y in tail.items():
                x = other.get(c, 0) - f * y
                if p:
                    x %= p
                if x:
                    if c not in other:
                        rows_at.setdefault(c, set()).add(q)
                    other[c] = x
                else:  # other held c: f y is not 0 in the field
                    del other[c]
                    rows_at[c].discard(q)
        for c in tail:
            rows_at.setdefault(c, set()).add(piv)
        tails[piv] = tail
        return {piv: 1, **tail}

    @property
    def rank(self):
        return len(self.tails)


_RHS = float("inf")  # the augmented column of frac_solve, after every unknown


def frac_solve(rows, rhs):
    """Solve sum_c row[c] x_c = b exactly for each row, b in zip(rows, rhs).

    Rows are sparse {column: coefficient} dicts; the system may be
    overdetermined.  Each row goes into a `ModIncrementalRank` over Q,
    augmented by -b at the column `_RHS`, which sorts after every unknown; a
    basis row then reads x_piv + sum_c tail[c] x_c + tail[_RHS] = 0.  The
    system is inconsistent exactly when `_RHS` becomes a pivot.  Otherwise,
    with the free unknowns 0, each pivot unknown is -tail[_RHS]; the reduced
    row-echelon form is unique, so these are the values of elimination in
    column order.  Returns {column: value} for the nonzero values, Fractions
    in column order, or None when the system is inconsistent.
    """
    acc = ModIncrementalRank(None)
    for row, b in zip(rows, rhs):
        acc.add({**row, _RHS: -b})
        if _RHS in acc.tails:
            return None
    return {c: -tail[_RHS] for c, tail in sorted(acc.tails.items()) if _RHS in tail}


def modular_rank(rows, ncols, p):
    """Rank mod p of a sequence of sparse integer rows over ncols columns.

    Rank does not depend on the order of the rows, but fill-in does.  A new
    pivot is cleared from every basis row with an entry in its column, and
    basis rows have entries only right of their pivots.  The rows go in by
    descending largest column, from the last columns back, so a new pivot
    mostly lies left of every earlier row and clears nothing.
    """
    acc = ModIncrementalRank(p)
    for row in sorted(rows, key=lambda row: max(row, default=-1), reverse=True):
        acc.add(row)
    return acc.rank


# -- commutants ------------------------------------------------------------------

def _rows_of(cols):
    """The rows, {column: entry} dicts, of a square matrix given by its columns."""
    rows = [{} for _ in cols]
    for k, col in enumerate(cols):
        for i, x in col.items():
            rows[i][k] = x
    return rows


def commutant_constraint_rows(mats, N, classes=None):
    """Sylvester rows of {X : X M = M X for every M in mats}, the nonzero ones.

    Each M is given by its N columns, {row: residue} dicts.  X is flattened
    row major, and constraint (i, j) of M is the row of
    sum_k X[i, k] M[k, j] - sum_k M[i, k] X[k, j].  With `classes` (a class
    label per index), the unknowns are only the X[i, k] with classes[i] ==
    classes[k], the others taken as 0 (see commutant_upper); without, every
    X[i, k] is one.  A single-entry row forces its unknown to 0, so only the
    first such row of each unknown is kept.
    """
    classes = classes or [None] * N
    members = {}
    for k, label in enumerate(classes):
        members.setdefault(label, []).append(k)
    out, forced = [], set()
    for cols in mats:
        rows = _rows_of(cols)
        for i, row_i in enumerate(rows):
            cons = {}  # j -> constraint (i, j)
            for k in members[classes[i]]:
                for j, x in rows[k].items():
                    cons.setdefault(j, {})[i * N + k] = x
            for k, y in row_i.items():
                for j in members[classes[k]]:
                    row = cons.setdefault(j, {})
                    c = k * N + j
                    x = row.get(c, 0) - y
                    if x:
                        row[c] = x
                    else:  # only at k = i, j, where M[j, j] = M[i, i]
                        del row[c]
            for row in cons.values():
                if len(row) > 1:
                    out.append(row)
                elif row:
                    (c,) = row
                    if c not in forced:
                        forced.add(c)
                        out.append(row)
    return out


def commutant_upper(mats, N, p):
    """Nullity mod p of the commutant constraints of mats (an upper bound).

    A diagonal M contributes the constraints X[i, j] (M[j, j] - M[i, i]) = 0.
    Together the diagonal matrices say only that X[i, j] = 0 unless i and j
    have the same tuple of diagonal residues, their Cartan class.  So the
    unknowns are the X[i, j] inside one class, the rows are those of the
    other matrices on them, and the nullity is their number less the rank.
    With no diagonal matrix, there is one class and the system is the full
    one.  Entries are reduced mod p first: 7 + p falls in the class of 7,
    and a constraint entry, a difference of two residues, is nonzero
    exactly when it is nonzero mod p.
    """
    mats = [[{i: r for i, x in col.items() if (r := x % p)} for col in cols] for cols in mats]
    diagonal = [all(col.keys() <= {k} for k, col in enumerate(cols)) for cols in mats]
    classes = [tuple(cols[k].get(k, 0) for cols, diag in zip(mats, diagonal) if diag)
               for k in range(N)]
    unknowns = sum(m * m for m in Counter(classes).values())
    rest = [cols for cols, diag in zip(mats, diagonal) if not diag]
    return unknowns - modular_rank(commutant_constraint_rows(rest, N, classes), unknowns, p)


def eigen_nullity(mats, N, root, p):
    """Dimension mod p of {w : M w = root w for every M in mats}.

    Each M is given by its N columns, {row: residue} dicts.  The rows of
    every M - root go to modular_rank; the dimension is N less their rank.
    """
    rows = []
    for cols in mats:
        for i, row in enumerate(_rows_of(cols)):
            x = (row.pop(i, 0) - root) % p
            if x:
                row[i] = x
            if row:
                rows.append(row)
    return N - modular_rank(rows, N, p)


def mod_span_closure(seeds, multipliers, p, stop=None):
    """F_p-rank of the span of words, closing the seeds under left multiplication.

    A word is an N x N matrix as a sparse row {i N + j: entry}; each
    multiplier is given by its N columns, {row: residue} dicts.  Each round
    multiplies the basis rows the last round added by every multiplier and
    adds the products, until a round adds nothing or the rank reaches
    `stop`.  Returns (rank, rounds).
    """
    acc = ModIncrementalRank(p)
    # (G w)[i, j] = sum_k G[i, k] w[k, j]: entry k N + j of w moves by (i - k) N
    steps = [[[((i - k) * len(G), g) for i, g in col.items()] for k, col in enumerate(G)]
             for G in multipliers]
    rounds = 0
    products = seeds
    while True:
        new = []
        for word in products:
            row = acc.add(word)
            if row:
                new.append(row)
                if acc.rank == stop:
                    return acc.rank, rounds
        if not new:
            return acc.rank, rounds
        products = (_lmul(step, word) for word in new for step in steps)
        rounds += 1


def _lmul(step, word):
    """G w as a row of ints (not reduced), from G's steps (see mod_span_closure)."""
    N = len(step)
    out = {}
    for c, x in word.items():
        for shift, g in step[c // N]:
            out[c + shift] = out.get(c + shift, 0) + g * x
    return out
