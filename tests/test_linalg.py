"""Property tests of the modular linear algebra against dense and rational references."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from vtschur import linalg

from references import dense, frac_rank, mod_rank

P0 = linalg.CERT_PRIMES[0]
PROPS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def block_systems(draw):
    """A sparse integer system whose unknowns split into blocks of 1 to 5.

    Each block is a small random matrix on its own columns, which interleave
    with those of the other blocks; rows of all blocks are shuffled together,
    and some rows are single entries.  Entries lie in [-3, 3], so every minor
    of a block is below (3 sqrt 5)^5 < 14,000 in absolute value: the rank
    mod P0 is the rank over Q.
    """
    p = draw(st.sampled_from((7, P0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    ncols = draw(st.integers(1, 30))
    density = draw(st.sampled_from((0.2, 0.6, 1.0)))
    cols = list(range(ncols))
    rng.shuffle(cols)
    rows = []
    while cols:
        size = rng.randint(1, 5)
        block, cols = cols[:size], cols[size:]
        for _ in range(rng.randint(1, 2 * size + 2)):
            support = [c for c in block if rng.random() < density] or block[:1]
            rows.append({c: rng.randint(-3, 3) for c in support})
        if rng.random() < 0.5:
            rows.append({rng.choice(block): rng.randint(1, 3)})
    rng.shuffle(rows)
    return p, ncols, rows


@PROPS
@given(block_systems())
def test_component_rank_equals_dense_rank(system):
    """A block-diagonal system with single-entry rows, ranked in
    modular_rank's order, against plain dense elimination."""
    p, ncols, rows = system
    want = mod_rank(dense(rows, ncols), p)
    assert linalg.modular_rank(rows, ncols, p) == want
    if p == P0:
        assert want == frac_rank(dense(rows, ncols))


@PROPS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 4))
def test_modular_ranks_equal_rational_rank(seed, nrows, ncols):
    """Entries in [-9, 9] and at most 4 columns keep every minor below the
    certification primes, so the modular and rational ranks agree, in
    modular_rank's order and in the given order."""
    rng = random.Random(seed)
    rows = [{c: rng.randint(-9, 9) for c in range(ncols) if rng.random() < 0.5}
            for _ in range(nrows)]
    want = frac_rank(dense(rows, ncols))
    assert linalg.modular_rank(rows, ncols, P0) == want
    acc = linalg.ModIncrementalRank(P0)
    basis = [row for row in map(acc.add, rows) if row]
    assert acc.rank == len(basis) == want
    assert mod_rank(dense(rows + basis, ncols), P0) == want  # the basis spans the rows
    # reduced: no tail has an entry at a pivot, and rows_at indexes the tails
    assert all(c not in acc.tails for tail in acc.tails.values() for c in tail)
    assert {c: q for c, q in acc.rows_at.items() if q} == {
        c: {piv for piv, tail in acc.tails.items() if c in tail}
        for tail in acc.tails.values() for c in tail}


NCOLS = 8
small_ints = st.integers(-3, 3)
small_fracs = st.fractions(-2, 2, max_denominator=3)


@st.composite
def cancelling_systems(draw, entries):
    """Sparse rows over NCOLS columns, then up to 3 combinations a r_i + b r_j
    of them, which cancel completely against the rows before them."""
    rows = draw(st.lists(st.dictionaries(st.integers(0, NCOLS - 1), entries, max_size=4),
                         max_size=10))
    combos = []
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(entries), draw(entries)
        combos.append({c: a * r1.get(c, 0) + b * r2.get(c, 0) for c in r1.keys() | r2.keys()})
    return rows, combos


@PROPS
@given(cancelling_systems(small_ints | small_fracs))
def test_rational_accumulator_is_the_reduced_echelon_form(system):
    """Over Q (p = None) the accumulator's rank is the Fraction reference's,
    the combinations add nothing, and the basis is reduced: each row is 1 at
    its pivot, its smallest column, and 0 at every other pivot."""
    rows, combos = system
    acc = linalg.ModIncrementalRank(None)
    added = [row for row in map(acc.add, rows) if row]
    assert not any(map(acc.add, combos))
    assert acc.rank == len(added) == frac_rank(dense(rows + combos, NCOLS))
    assert all(row[min(row)] == 1 for row in added)
    basis = {piv: {piv: 1, **tail} for piv, tail in acc.tails.items()}
    for piv, row in basis.items():
        assert min(row) == piv and row[piv] == 1 and all(row.values())
        assert all(row.get(q, 0) == 0 for q in basis if q != piv)
    assert frac_rank(dense(rows + list(basis.values()), NCOLS)) == acc.rank  # it spans the rows


@PROPS
@given(cancelling_systems(small_ints))
def test_modular_rank_at_most_rational_rank(system):
    """On integer rows a rank can only drop mod p: the premise of the
    certificate's lower bound.  Primes 2 and 3 make the drop happen."""
    rows, combos = system
    want = frac_rank(dense(rows + combos, NCOLS))
    for p in linalg.CERT_PRIMES + (2, 3):
        acc = linalg.ModIncrementalRank(p)
        for row in rows + combos:
            acc.add(row)
        assert acc.rank <= want
        assert acc.rank == mod_rank(dense(rows + combos, NCOLS), p)


def test_span_closure_rounds_and_stop():
    ident = {0: 1, 3: 1}
    swap = [{1: 1}, {0: 1}]  # the columns of [[0, 1], [1, 0]]
    shear = [{0: 1}, {0: 1, 1: 1}]  # [[1, 1], [0, 1]]: S^2 = 2 S - I
    assert linalg.mod_span_closure([ident], [swap], P0) == (2, 2)  # round 2 adds nothing
    assert linalg.mod_span_closure([ident], [swap], P0, stop=2) == (2, 1)
    assert linalg.mod_span_closure([ident], [shear], P0) == (2, 2)
    # X S = X + E_22 completes M_2 in round 2
    assert linalg.mod_span_closure([ident], [swap, shear], P0) == (4, 3)
    assert linalg.mod_span_closure([ident], [swap, shear], P0, stop=4) == (4, 2)


def _full_nullity(mats, N, p):
    return N * N - linalg.modular_rank(linalg.commutant_constraint_rows(mats, N), N * N, p)


def test_commutant_upper_on_shared_cartan_classes():
    # the diagonals give indices 0 and 1 the tuple (1, 5), and 3 and 4 the
    # tuple (2, 7); index 5's 0 is an empty column
    N = 6
    diagonals = [[{k: x} if x else {} for k, x in enumerate(entries)]
                 for entries in ([1, 1, 2, 2, 2, 0], [5, 5, 5, 7, 7, 7])]
    classes = [0, 0, 1, 2, 2, 3]
    rng = random.Random(31)
    seen = set()
    for _ in range(60):
        mats = list(diagonals)
        for _ in range(rng.randint(0, 2)):
            # inside the classes (the commutant stays large) or across them
            inside = rng.random() < 0.5
            density = rng.choice((0.2, 0.5))
            mats.append([{i: rng.randint(1, P0 - 1) for i in range(N)
                          if rng.random() < density and (classes[i] == classes[k] or not inside)}
                         for k in range(N)])
        rng.shuffle(mats)
        upper = linalg.commutant_upper(mats, N, P0)
        assert upper == _full_nullity(mats, N, P0)
        seen.add(upper)
    assert 10 in seen and len(seen) > 3  # 10 = 2^2 + 1 + 2^2 + 1, the diagonals alone


def test_commutant_upper_reduces_entries_mod_p():
    # entries that are not residues: 7 + p is 7 mod p, so index 4 stays in
    # the class of 3 and 5, and a shift of every entry of the other matrix
    # by a multiple of p (its zeros as p) changes no nullity
    N = 6

    def diagonals(seven):
        return [[{k: x} if x else {} for k, x in enumerate(entries)]
                for entries in ([1, 1, 2, 2, 2, 0], [5, 5, 5, 7, seven, 7])]

    assert linalg.commutant_upper(diagonals(7), N, P0) == 10
    assert linalg.commutant_upper(diagonals(7 + P0), N, P0) == 10
    rng = random.Random(8)
    for _ in range(10):
        other = [{i: rng.randint(0, 3) for i in range(N) if rng.random() < 0.4} for _ in range(N)]
        lifted = [{i: x + rng.randint(1, 3) * P0 for i, x in col.items()} for col in other]
        other = [{i: x for i, x in col.items() if x} for col in other]
        want = linalg.commutant_upper(diagonals(7) + [other], N, P0)
        assert want == _full_nullity(diagonals(7) + [other], N, P0)
        assert linalg.commutant_upper(diagonals(7 + P0) + [lifted], N, P0) == want


def test_eigen_nullity_equals_dense_nullity():
    # matrices with planted common eigenvectors e_k for the root, so the
    # common eigenspace takes many dimensions
    rng = random.Random(12)
    seen = set()
    for _ in range(60):
        N, p = rng.randint(1, 6), rng.choice((7, P0))
        root = rng.randint(1, p - 1)
        planted = rng.sample(range(N), rng.randint(0, N))
        mats = []
        for _ in range(rng.randint(1, 3)):
            M = [[rng.randint(0, 2) * (rng.random() < 0.4) for _ in range(N)] for _ in range(N)]
            for k in planted:  # column k becomes root e_k
                for i in range(N):
                    M[i][k] = root * (i == k)
            mats.append([{i: M[i][k] % p for i in range(N) if M[i][k] % p} for k in range(N)])
        rows = [[M_cols[k].get(i, 0) - root * (i == k) for k in range(N)]
                for M_cols in mats for i in range(N)]
        want = N - mod_rank(rows, p)
        assert linalg.eigen_nullity(mats, N, root, p) == want
        seen.add(want)
    assert len(seen) > 3


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
        matrix = [[int(rng.random() < 0.3) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.6:
            hidden = [rng.randint(-3, 3) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, hidden)) for row in matrix]
        else:
            rhs = [rng.randint(-3, 3) for _ in range(nrows)]
        want = dense_frac_solve(matrix, rhs)
        got = linalg.frac_solve([{c: a for c, a in enumerate(row) if a} for row in matrix], rhs)
        if want is None:
            kinds["inconsistent"] += 1
            assert got is None
            continue
        kinds["unique" if frac_rank(matrix) == ncols else "under-determined"] += 1
        assert got == {c: x for c, x in enumerate(want) if x}
        assert all(isinstance(x, Fraction) for x in got.values())
    assert min(kinds.values()) >= 30, kinds


def test_cli_suites_leave_numpy_unloaded():
    # nothing in the package needs numpy; importing it costs ~150 ms and ~13 MB
    import subprocess
    import sys

    code = ("import sys\n"
            "import vtschur.cli\n"
            "from vtschur import cli\n"
            "cfg = {'n': 2, 'd': 2, 'm': 1, 'primes': (3, 5, 7), 'window': 4, 'spec': (2, 3)}\n"
            "assert cli.run_suite('duality', cfg).passed\n"
            "assert cli.run_suite('oracle', cfg).passed\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
