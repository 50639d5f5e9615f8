"""Exact references that only the tests use."""

from vtschur import flags, laurent, linalg


def frac_rank(rows):
    """Rank over Q of a list of rows (iterables of Fractions or ints)."""
    acc = linalg.IncrementalRank()
    for row in rows:
        acc.add(row)
    return acc.rank


def rs_to_vt(rp):
    """Substitute r = vt, s = v^{-1}t back into an RSPoly (inverse of laurent.to_rs)."""
    return laurent.VTPoly({(x - y, x + y): c for (x, y), c in rp.c.items()})


def classify_pairs(left_flags, right_flags, p):
    """Group all pairs by orbit matrix; keeps up to two representatives each."""
    types = {}
    for V in left_flags:
        for W in right_flags:
            M = flags.orbit_matrix(V, W, p)
            reps = types.setdefault(M, [])
            if len(reps) < 2:
                reps.append((V, W))
    return types


def interior_part(x, window):
    """The terms of x on matrices inside the window's margin."""
    return {M: c for M, c in x.items() if window.interior(M)}
