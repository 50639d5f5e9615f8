import hashlib
import math
import random

import pytest

from vtschur import flags as fl, laurent
from vtschur.matrices import co, diag, dim_stats, mat, ro, unit

from references import classify_pairs, rref_dense


def gaussian_binomial_count(p, d, k):
    """The number of k-dimensional subspaces of F_p^d."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def test_subspace_counts():
    assert len(fl.enum_subspaces(3, 2, 1)) == 4
    assert fl.enum_subspaces(3, 2, 0) == [()]
    assert len(fl.enum_subspaces(5, 3, 1)) == 31
    for p in (3, 5):
        for d in range(4):
            for k in range(d + 1):
                assert len(fl.enum_subspaces(p, d, k)) == gaussian_binomial_count(p, d, k)


def test_subspaces_canonical():
    subs = fl.enum_subspaces(5, 3, 2)
    assert len(set(subs)) == len(subs)
    for s in subs:
        assert fl.rref(s, 5) == s


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rref_matches_dense_reference(p):
    rng = random.Random(p)
    for d in range(5):
        cases = [(), ((0,) * d,), ((0,) * d,) * 3]
        for _ in range(60):
            rows = [tuple(rng.randrange(-p, 2 * p) for _ in range(d)) for _ in range(rng.randrange(1, 6))]
            rows += [(0,) * d] * rng.randrange(2) + rng.sample(rows, rng.randrange(len(rows) + 1))
            rng.shuffle(rows)
            cases.append(tuple(rows))
        for rows in cases:
            assert fl.rref(rows, p) == rref_dense(rows, p), (rows, p)


def test_flag_counts():
    assert len(fl.enum_flags_Y(3, 2)) == 4
    assert len(fl.enum_flags_Y(3, 3)) == 52
    assert len(fl.enum_flags_X(3, 2, 1)) == 1
    assert len(fl.enum_flags_X(3, 1, 2)) == 2


def test_guards():
    # the desk-scale guards are the CLI's (test_cli); the library takes any
    # prime, and only an odd one
    with pytest.raises(ValueError):
        fl.enum_flags_Y(4, 2)
    assert len(fl.enum_flags_Y(11, 2)) == 12


def test_orbit_matrix_diagonal():
    p = 3
    for V in fl.enum_flags_X(p, 2, 2):
        M = fl.orbit_matrix(V, V, p)
        dims = [len(s) for s in V]
        steps = [dims[0]] + [dims[i] - dims[i - 1] for i in range(1, len(dims))]
        assert M == diag(steps)


def test_orbit_matrix_small_case():
    # n=2, d=1: the pair (full <= full, 0 <= full) sits on the E_12 orbit
    p = 3
    V = (fl.full_space(1), fl.full_space(1))
    W = ((), fl.full_space(1))
    assert fl.orbit_matrix(V, W, p) == unit(2, 1, 2)


def test_orbit_matrix_profiles():
    p = 3
    X = fl.enum_flags_X(p, 2, 2)
    rng = random.Random(5)
    for _ in range(100):
        V = rng.choice(X)
        W = rng.choice(X)
        M = fl.orbit_matrix(V, W, p)
        assert sum(sum(r) for r in M) == 2
        dimsV = [len(s) for s in V]
        dimsW = [len(s) for s in W]
        assert list(ro(M)) == [dimsV[0]] + [dimsV[i] - dimsV[i - 1] for i in range(1, 2)]
        assert list(co(M)) == [dimsW[0]] + [dimsW[i] - dimsW[i - 1] for i in range(1, 2)]


def random_invertible(p, d, rng):
    while True:
        g = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if len(fl.rref(tuple(map(tuple, g)), p)) == d:
            return g


def apply_g(g, flag, p):
    out = []
    for rows in flag:
        moved = tuple(
            tuple(sum(r[k] * g[k][j] for k in range(len(g))) % p for j in range(len(g)))
            for r in rows
        )
        out.append(fl.rref(moved, p))
    return tuple(out)


def test_orbit_matrix_g_invariance():
    p = 3
    d = 2
    X = fl.enum_flags_X(p, d, 2)
    Y = fl.enum_flags_Y(p, d)
    rng = random.Random(17)
    for _ in range(10):
        g = random_invertible(p, d, rng)
        V = rng.choice(X)
        W = rng.choice(X)
        F = rng.choice(Y)
        assert fl.orbit_matrix(V, W, p) == fl.orbit_matrix(apply_g(g, V, p), apply_g(g, W, p), p)
        assert fl.orbit_matrix(V, F, p) == fl.orbit_matrix(apply_g(g, V, p), apply_g(g, F, p), p)


@pytest.mark.parametrize("n,d,p", [(2, 2, 3), (2, 3, 3), (3, 2, 3), (3, 3, 3), (2, 2, 5), (3, 2, 5), (2, 3, 5), (3, 3, 5)])
def test_orbit_type_counts(n, d, p):
    X = fl.enum_flags_X(p, d, n)
    Y = fl.enum_flags_Y(p, d)
    xy_types = {fl.orbit_matrix(V, F, p) for V in X for F in Y}
    assert len(xy_types) == n ** d
    yy_types = {fl.orbit_matrix(F, G, p) for F in Y for G in Y}
    assert len(yy_types) == math.factorial(d)
    for M in yy_types:
        assert set(ro(M)) == {1} and set(co(M)) == {1}


@pytest.mark.parametrize("n,d,p", [(2, 2, 3), (2, 3, 3), (3, 2, 3), (3, 3, 3), (2, 2, 5), (3, 2, 5), (2, 3, 5), (3, 3, 5)])
def test_orbit_types_from_one_flag_match_all_pairs(n, d, p):
    X = fl.enum_flags_X(p, d, n)
    Y = fl.enum_flags_Y(p, d)
    assert fl.orbit_types(p, d, n, ("X", "Y")) == {fl.orbit_matrix(V, F, p) for V in X for F in Y}
    assert fl.orbit_types(p, d, n, ("Y", "Y")) == {fl.orbit_matrix(F, G, p) for F in Y for G in Y}


def _reference_orbit_matrix(V, W, sum_dim):
    """The formula orbit_matrix is defined by, read from pairwise sum
    dimensions: entry (i, j) = S(i-1, j) - S(i, j) - S(i-1, j-1) + S(i, j-1)
    with S(i, j) = sum_dim(V_i, W_j) = dim(V_i + W_j) and V_0 = W_0 = 0."""
    S = [[sum_dim(a, b) for b in ((),) + tuple(W)] for a in ((),) + tuple(V)]
    return tuple(
        tuple(S[i - 1][j] - S[i][j] - S[i - 1][j - 1] + S[i][j - 1] for j in range(1, len(S[0])))
        for i in range(1, len(S))
    )


def _rref_sum_dims(p, d):
    """{(a, b): len(rref(a + b))} over every pair of subspaces of F_p^d."""
    subs = [s for k in range(d + 1) for s in fl.enum_subspaces(p, d, k)]
    return {(a, b): len(fl.rref(a + b, p)) for a in subs for b in subs}


@pytest.mark.parametrize("p,n,d", [(3, 2, 0), (3, 2, 2), (3, 3, 3), (5, 2, 3), (7, 2, 3)])
def test_orbit_matrix_matches_rref_reference(p, n, d):
    dims = _rref_sum_dims(p, d)

    def sum_dim(a, b):
        return dims[a, b]

    X = fl.enum_flags_X(p, d, n)
    Y = fl.enum_flags_Y(p, d)
    rng = random.Random(p * 100 + n * 10 + d)
    pairs = [(V, W) for V in X for W in Y] + [(F, G) for F in Y for G in Y]
    pairs += [(rng.choice(X), rng.choice(X)) for _ in range(2000)]
    for V, W in pairs:
        assert fl.orbit_matrix(V, W, p) == _reference_orbit_matrix(V, W, sum_dim), (V, W)


@pytest.mark.parametrize("p,d", [(3, 3), (5, 2), (7, 3), (3, 4)])
def test_sum_dimension_table_matches_rref(p, d):
    ids, table = fl._subspace_index(p, d)
    subs = [s for k in range(d + 1) for s in fl.enum_subspaces(p, d, k)]
    assert sorted(ids.values()) == list(range(len(subs))) and set(ids) == set(subs)
    assert ids[()] == 0
    for a in subs:
        row = table[ids[a]]
        for b in subs:
            assert row[ids[b]] == len(fl.rref(a + b, p)), (a, b)


def test_orbit_matrix_guards_subspace_table():
    # the (p, d) table has one entry per pair of subspaces: 7.1e6 at (3, 5)
    # and 1.8e9 at (5, 5), so the CLI guards d <= 4
    # (test_allow_large_lifts_the_subspace_table_guard)
    full4 = fl.full_space(4)
    assert fl.orbit_matrix((full4[:2], full4), (full4[2:], full4), 3) == ((0, 2), (2, 0))


def test_orbit_matrix_accepts_any_spanning_rows():
    p, d = 5, 3
    rng = random.Random(23)
    X = fl.enum_flags_X(p, d, 3)
    Y = fl.enum_flags_Y(p, d)

    def sum_dim(a, b):
        return len(fl.rref(a + b, p))

    def scaled(s):  # first basis row times 2
        return (tuple(2 * x % p for x in s[0]),) + s[1:] if s else s

    def swapped(s):  # last row first
        return s[-1:] + s[:-1]

    def redundant(s):  # an extra row, the sum of the first and last
        return s + (tuple((x + y) % p for x, y in zip(s[0], s[-1])),) if s else s

    for spoil in (scaled, swapped, redundant):
        for _ in range(40):
            V, W = rng.choice(X), rng.choice(Y)
            V2 = tuple(map(spoil, V))
            W2 = tuple(map(spoil, W))
            assert any(s != t for s, t in zip(V2 + W2, V + W))
            expect = _reference_orbit_matrix(V2, W2, sum_dim)
            assert expect == fl.orbit_matrix(V, W, p)
            assert fl.orbit_matrix(V2, W2, p) == expect
            assert fl.orbit_matrix(V, W2, p) == expect


def test_orbit_matrix_encodes_each_flag_once():
    p, n, d = 5, 2, 3
    X = fl.enum_flags_X(p, d, n)
    Y = fl.enum_flags_Y(p, d)
    fl._flag_code.cache_clear()
    xy = {fl.orbit_matrix(V, F, p) for V in X for F in Y}
    yy = {fl.orbit_matrix(F, G, p) for F in Y for G in Y}
    assert len(xy) == n ** d and len(yy) == math.factorial(d)
    assert fl._flag_code.cache_info().misses <= len(X) + len(Y)


def test_yy_identity():
    p = 3
    F = fl.enum_flags_Y(p, 3)[0]
    assert fl.orbit_matrix(F, F, p) == diag((1, 1, 1))


def test_dim_stats():
    assert dim_stats(diag((1, 2)))[2] == 0
    assert dim_stats(unit(2, 1, 2))[2] == 0
    assert dim_stats(mat([[0, 1], [1, 0]]))[2] == 1
    rng = random.Random(9)
    for _ in range(40):
        n = rng.choice([2, 3])
        M = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n))
        d = sum(sum(r) for r in M)
        stab, orbit, _ = dim_stats(M)
        assert stab + orbit == d * d


def test_convolve_count_examples():
    # unique middle flag: B = E_12, A = diag(0, 1) composes to E_12
    B = unit(2, 1, 2)
    A = diag((0, 1))
    assert fl.convolve_count(B, A, 3, 1, 2) == {B: 1}
    # idempotent diagonals
    D = diag((1, 1))
    assert fl.convolve_count(D, D, 3, 2, 2) == {D: 1}
    # a genuinely quantum count: q + 1 middle lines at q = 3
    B = mat([[1, 1], [0, 0]])
    A = mat([[1, 0], [1, 0]])
    out = fl.convolve_count(B, A, 3, 2, 2)
    assert out == {diag((2, 0)): 4}


def test_convolve_count_incompatible():
    with pytest.raises(ValueError):
        fl.convolve_count(diag((1, 0)), diag((0, 1)), 3, 1, 2)


@pytest.mark.parametrize("B,A", [
    (((1, 1, 0), (0, 0, 0), (0, 0, 0)), diag((1, 1, 0))),  # 3 x 3 in an n = 2 request
    (((1, 1),), diag((1, 1))),  # B has one row
    (((1, 1, 0), (0, 0)), diag((1, 1))),  # ragged B
    (diag((1, 2)), diag((1, 2))),  # both sum to 3, not d = 2
    (diag((1, 1)), mat([[2, -1], [1, 0]])),  # a negative entry in A
])
def test_convolve_count_rejects_malformed_matrices(B, A):
    with pytest.raises(ValueError):
        fl.convolve_count(B, A, 3, 2, 2)


def _all_pairs_table(p, d, n, kinds):
    """Brute-force reference: classify every left x right pair and count the
    middle flags on the first representative of each type."""
    family = {"X": fl.enum_flags_X(p, d, n), "Y": fl.enum_flags_Y(p, d)}
    left, mid, right = (family[k] for k in kinds)
    out = {}
    for C, reps in sorted(classify_pairs(left, right, p).items()):
        V, W = reps[0]
        for U in mid:
            key = (fl.orbit_matrix(V, U, p), fl.orbit_matrix(U, W, p))
            out.setdefault(key, {}).setdefault(C, 0)
            out[key][C] += 1
    return out


@pytest.mark.parametrize("p,d,n,kinds", [
    (3, 0, 2, "XXX"), (3, 1, 2, "XXX"), (3, 2, 2, "XXX"), (5, 2, 2, "XXX"), (3, 2, 3, "XXX"),
    (3, 1, 3, "XXX"), (3, 3, 2, "XXX"), (3, 2, 2, "XXY"), (3, 3, 2, "XXY"), (3, 2, 2, "YYY"),
    (3, 3, 3, "YYY"), (5, 2, 2, "YYY"),
])
def test_counting_matches_all_pairs_reference(p, d, n, kinds):
    ref = _all_pairs_table(p, d, n, kinds)
    table = fl.conv_table(p, d, n, kinds=tuple(kinds))
    assert table == ref
    for key, counts in table.items():
        assert list(counts.items()) == list(ref[key].items())  # C in sorted order
    if kinds == "XXX" and d <= 2:
        for (B, A), counts in ref.items():
            assert list(fl.convolve_count(B, A, p, d, n).items()) == list(counts.items())


def test_opposite_representative_disagreement_raises(monkeypatch):
    real = fl._type_counts

    def corrupt_opposite(*args):
        counts = real(*args)
        if args[-1] == -1:  # pick: the opposite flag's representative
            for buckets in counts.values():
                buckets[next(iter(buckets))] += 1
        return counts

    monkeypatch.setattr(fl, "_type_counts", corrupt_opposite)
    fl._products.cache_clear()
    with pytest.raises(AssertionError, match="depends on the representative"):
        fl.conv_table(3, 2, 2)
    with pytest.raises(AssertionError, match="depends on the representative"):
        fl.convolve_count(mat([[1, 1], [0, 0]]), mat([[1, 0], [1, 0]]), 3, 2, 2)


def test_conv_table_builds_each_orbit_column_once(monkeypatch):
    # one column per representative right flag: 8,512 orbit matrices at
    # (3, 3, 3); walking the middle flags again for every type makes 49,210
    real = fl._orbit
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(fl, "_orbit", counted)
    fl._products.cache_clear()
    fl.conv_table(3, 3, 3)
    assert 0 < calls[0] <= 10_000


def test_convolve_count_reads_the_memoized_table(monkeypatch):
    # after conv_table, each convolve_count at the same (p, d, n) is a lookup
    p, d, n = 3, 3, 3
    table = fl.conv_table(p, d, n)
    calls = [0]
    real = fl._orbit

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(fl, "_orbit", counted)
    for B, A in random.Random(5).sample(sorted(table), 20):
        assert fl.convolve_count(B, A, p, d, n) == table[(B, A)]
    assert calls[0] == 0


def test_conv_table_pinned():
    # (p, d, n, kinds); the digest covers every key, count and their order
    digest = hashlib.sha256()
    for p, d, n, kinds in [(3, 3, 3, "XXX"), (5, 3, 3, "XXX"), (3, 3, 2, "XXY"), (5, 3, 3, "YYY"),
                           (7, 2, 3, "XXX"), (3, 0, 2, "XXX"), (3, 1, 3, "XXX")]:
        table = fl.conv_table(p, d, n, kinds=tuple(kinds))
        digest.update(repr(list((k, list(v.items())) for k, v in table.items())).encode())
    assert digest.hexdigest() == "865868956e18f96b4949dbd50b0b61ad7390da19bcc3f33d70a4f1765c60fb01"


def test_conv_table_matches_convolve_count():
    p, d, n = 3, 2, 2
    table = fl.conv_table(p, d, n)
    B = mat([[1, 1], [0, 0]])
    A = mat([[1, 0], [1, 0]])
    assert table[(B, A)] == fl.convolve_count(B, A, p, d, n)


def test_oracle_associativity():
    rng = random.Random(31)
    for n, d in [(2, 2), (3, 2), (2, 1), (3, 1)]:
        table = fl.conv_table(3, d, n)
        keys = list(table)
        tried = 0
        trials = 0
        while tried < 20 and trials < 4000:
            trials += 1
            B, A = rng.choice(keys)
            # find C compatible with A on the right
            Cs = [C2 for (A2, C2) in keys if A2 == A]
            if not Cs:
                continue
            C = rng.choice(Cs)
            left = {}
            for M, cnt in table[(B, A)].items():
                for Z, cnt2 in table.get((M, C), {}).items():
                    left[Z] = left.get(Z, 0) + cnt * cnt2
            right = {}
            for M, cnt in table[(A, C)].items():
                for Z, cnt2 in table.get((B, M), {}).items():
                    right[Z] = right.get(Z, 0) + cnt2 * cnt
            assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}
            tried += 1
        assert tried == 20


def convolution_report(B, A, p, d, n):
    """JSON-ready record of one counting comparison."""
    counts = fl.convolve_count(B, A, p, d, n)
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


def test_convolution_report_shape():
    B = unit(2, 1, 2)
    A = diag((0, 1))
    doc = convolution_report(B, A, 3, 1, 2)
    assert doc["n"] == 2 and doc["d"] == 1 and doc["p"] == 3
    assert doc["B"] == [[0, 1], [0, 0]]
    assert doc["counts"] == [{"C": [[0, 1], [0, 0]], "count": 1}]


def test_counts_match():
    # at v^2 = 3, 1 + v^2 evaluates to 4
    two = laurent.ONE + laurent.mono(2, 0)
    assert fl.counts_match({"C": two, "D": laurent.ONE}, {"C": 4, "D": 1}, 3)
    assert not fl.counts_match({"C": two}, {"C": 5}, 3)  # wrong count
    assert not fl.counts_match({"C": two}, {"C": 4, "D": 1}, 3)  # counted key missing
    assert not fl.counts_match({"C": two, "D": laurent.ONE}, {"C": 4}, 3)  # uncounted key
    assert not fl.counts_match({"C": laurent.mono(1, 0)}, {"C": 3}, 3)  # odd v-power
    assert not fl.counts_match({"C": laurent.mono(2, 1)}, {"C": 3}, 3)  # a t-power
