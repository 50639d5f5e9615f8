"""Exact references that only the tests use."""

from vtschur import laurent, linalg


def frac_rank(rows):
    """Rank over Q of a list of rows (iterables of Fractions or ints)."""
    acc = linalg.IncrementalRank()
    for row in rows:
        acc.add(row)
    return acc.rank


def rs_to_vt(rp):
    """Substitute r = vt, s = v^{-1}t back into an RSPoly (inverse of laurent.to_rs)."""
    return laurent.VTPoly({(x - y, x + y): c for (x, y), c in rp.c.items()})
