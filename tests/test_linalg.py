"""Property tests of the modular linear algebra against dense and rational references."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtschur import linalg

from references import frac_rank

P0 = linalg.CERT_PRIMES[0]
PROPS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def block_systems(draw):
    """A sparse integer system whose unknowns split into a few blocks.

    Each block is a small random matrix on its own columns; rows of all
    blocks are shuffled together, and some rows are single entries.
    """
    p = draw(st.sampled_from((7, P0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ncols = draw(st.integers(1, 30))
    blocks = rng.integers(0, draw(st.integers(1, 6)), size=ncols)
    entries = []
    nrows = 0
    for b in np.unique(blocks):
        cols = np.flatnonzero(blocks == b)
        for _ in range(int(rng.integers(1, 2 * cols.size + 2))):
            support = cols[rng.random(cols.size) < draw(st.sampled_from((0.2, 0.6, 1.0)))]
            if support.size == 0:
                support = cols[:1]
            vals = rng.integers(-3, 4, size=support.size) % p
            entries += [(nrows, int(c), float(x)) for c, x in zip(support, vals) if x]
            nrows += 1
    rng.shuffle(entries)
    rows, cols, vals = (np.array(x) for x in zip(*entries)) if entries else (np.zeros(0, int),) * 3
    return p, nrows, ncols, rows.astype(np.int64), cols.astype(np.int64), vals.astype(np.float64)


@PROPS
@given(block_systems())
def test_component_rank_equals_dense_rank(system):
    p, nrows, ncols, rows, cols, vals = system
    dense = np.zeros((nrows, ncols))
    np.add.at(dense, (rows, cols), vals)
    assert linalg.component_rank(rows, cols, vals, ncols, p) == linalg.modular_rank(dense, ncols, p)


@PROPS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((-1, 0, 1, 2)), st.sampled_from((1, 2)),
       st.sampled_from(linalg.CERT_PRIMES))
def test_float_mul_mod_equals_int64(seed, offset, chunks, p):
    """At and around the chunk boundary of the inner dimension, with maximal entries."""
    rng = np.random.default_rng(seed)
    k = chunks * linalg.exact_inner(p) + offset
    a = rng.integers(0, p, size=(3, k))
    b = rng.integers(0, p, size=(k, 2))
    # one output entry sums k products of near-maximal residues of both parities:
    # past the chunk boundary it would exceed 2^53 and round
    a[0] = rng.integers(p - 20, p, size=k)
    b[:, 0] = rng.integers(p - 20, p, size=k)
    want = np.zeros((3, 2), dtype=np.int64)  # int64 cannot overflow: k (p-1)^2 < 2^63
    for lo in range(0, k, 1000):
        want = (want + a[:, lo:lo + 1000] @ b[lo:lo + 1000] % p) % p
    got = linalg.mul_mod(a.astype(np.float64), b.astype(np.float64), p)
    assert np.array_equal(got.astype(np.int64), want)


@PROPS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 4))
def test_modular_ranks_equal_rational_rank(seed, nrows, ncols):
    """Entries in [-9, 9] and at most 4 columns keep every minor below the
    certification primes, so the modular and rational ranks agree, in one
    elimination and in blocks of random size."""
    rng = np.random.default_rng(seed)
    m = rng.integers(-9, 10, size=(nrows, ncols)) * (rng.random((nrows, ncols)) < 0.5)
    want = frac_rank(m.tolist())
    assert linalg.modular_rank(m, ncols, P0) == want
    acc = linalg.ModIncrementalRank(ncols, P0)
    cuts = np.sort(rng.integers(0, nrows + 1, size=3))
    for block in np.split(m, cuts):
        acc.add(block)
    assert acc.rank == want
    assert np.array_equal(acc.basis[:, acc.pivots], np.eye(want))


def test_span_closure_rejects_a_grading_the_words_break():
    ident = np.eye(2)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    grade = np.array([0, 1, 1, 0])  # diagonal against off-diagonal entries
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert linalg.mod_span_closure([ident], [swap], P0, grade) == (2, 2)  # round 2 adds nothing
    assert linalg.mod_span_closure([ident], [swap], P0, grade, stop=2) == (2, 1)
    with pytest.raises(ValueError):
        linalg.mod_span_closure([ident], [shear], P0, grade)


def dense_frac_solve(matrix, rhs):
    """Reference: dense Gauss-Jordan over Q in column order, free unknowns 0."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    return [m[pivots.index(c)][ncols] if c in pivots else Fraction(0) for c in range(ncols)]


def test_sparse_frac_solve_matches_dense_reference():
    """Random 0/1 incidence systems, like the stabilization fit's: right-hand
    sides from a hidden solution (unique or under-determined) or random
    (mostly inconsistent)."""
    rng = random.Random(20)
    kinds = {"unique": 0, "under-determined": 0, "inconsistent": 0}
    for _ in range(300):
        ncols = rng.randint(1, 12)
        nrows = rng.randint(1, 16)
        dense = [[int(rng.random() < 0.3) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.6:
            hidden = [rng.randint(-3, 3) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, hidden)) for row in dense]
        else:
            rhs = [rng.randint(-3, 3) for _ in range(nrows)]
        want = dense_frac_solve(dense, rhs)
        got = linalg.frac_solve([{c: a for c, a in enumerate(row) if a} for row in dense], rhs)
        if want is None:
            kinds["inconsistent"] += 1
            assert got is None
            continue
        kinds["unique" if frac_rank(dense) == ncols else "under-determined"] += 1
        assert got == {c: x for c, x in enumerate(want) if x}
        assert all(isinstance(x, Fraction) for x in got.values())
    assert min(kinds.values()) >= 30, kinds


def test_duality_suite_leaves_numpy_ma_unloaded():
    # np.unique without options imports numpy.ma (10-17 ms per process); the
    # span closure sorts its grade labels without it
    import subprocess
    import sys

    code = ("import sys\n"
            "from vtschur import cli\n"
            "cfg = {'n': 2, 'd': 2, 'm': 1, 'primes': (3,), 'window': 4, 'spec': (2, 3)}\n"
            "assert cli.run_suite('duality', cfg).passed\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
