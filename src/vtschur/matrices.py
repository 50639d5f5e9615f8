"""Integer matrices indexing orbits: row/column profiles and dimension counts.

Matrices are square tuples of tuples of ints, so they can key dicts directly.
"""

from __future__ import annotations

import itertools


def ro(M):
    """Row-sum vector."""
    return tuple(map(sum, M))


def co(M):
    """Column-sum vector."""
    return tuple(map(sum, zip(*M)))


def mat(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def zero(n):
    return tuple((0,) * n for _ in range(n))


def unit(n, i, j, val=1):
    """n-by-n matrix with a single entry val at (i, j); 1-based indices."""
    return tuple(tuple(val if (r, c) == (i - 1, j - 1) else 0 for c in range(n)) for r in range(n))


def diag(vec):
    n = len(vec)
    return tuple(tuple(vec[r] if r == c else 0 for c in range(n)) for r in range(n))


def diag_of(M):
    return tuple(M[i][i] for i in range(len(M)))


def add(M, N):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(M, N))


def check_matrix(A, n, d):
    """ValueError unless A is an n x n matrix of naturals summing to d."""
    if len(A) != n or any(len(row) != n or min(row) < 0 for row in A) or sum(map(sum, A)) != d:
        raise ValueError("matrix %r is not %d x %d natural summing to %d" % (A, n, n, d))


def is_stab(M):
    """Integer matrix with nonnegative off-diagonal entries."""
    return all(x >= 0 for i, row in enumerate(M) for j, x in enumerate(row) if i != j)


def theta_matrices(n, d):
    """All n-by-n natural matrices summing to d, in lexicographic order: the
    compositions of d into n * n parts, read row by row."""
    return [tuple(f[i * n:(i + 1) * n] for i in range(n)) for f in compositions(n * n, d)]


def compositions(n, d):
    """All vectors in N^n summing to d."""
    out = []
    for cuts in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(d + n - 2 - prev)
        out.append(tuple(parts))
    return out


def dim_stats(M):
    """(stabilizer dim, orbit dim, d(M) - r(M)) from the entry-pair counts.

    stabilizer = sum over i>=k, j>=l of m_ij m_kl; orbit is the complement in
    (sum of entries)^2; the last value counts pairs with i>=k and j<l.
    """
    cells = [(i, j, x) for i, row in enumerate(M) for j, x in enumerate(row) if x]
    stab = orbit = dmr = 0
    for i, j, x in cells:
        for k, l, y in cells:
            if i >= k and j >= l:
                stab += x * y
            else:
                orbit += x * y
            if i >= k and j < l:
                dmr += x * y
    return stab, orbit, dmr


def dminusr(M):
    return dim_stats(M)[2]
