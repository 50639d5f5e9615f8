import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from vtschur import galois, laurent, linalg, tensor as tn
from vtschur.laurent import ONE, T, V, mono


def test_act_E_examples():
    assert tn.act_E(1, {(2,): ONE}, 2) == {(1,): T}
    assert tn.act_E(1, {(1,): ONE}, 2) == {}
    out = tn.act_E(1, {(2, 2): ONE}, 2)
    # p=1 sees the second entry 2 (delta_{2, r_2} = 1): v^{-1} t^2; p=2 sees nothing: t
    assert out == {(1, 2): mono(-1, 2), (2, 1): mono(0, 1)}


def test_act_F_examples():
    out = tn.act_F(1, {(1, 1): ONE}, 2)
    assert out == {(2, 1): ONE, (1, 2): mono(-1, 1)}
    assert tn.act_F(1, {(2,): ONE}, 2) == {}


def test_act_diag():
    assert tn.act_A(1, 1, {(1, 1): ONE}, 2) == {(1, 1): mono(2, 2)}
    assert tn.act_B(2, 1, {(1, 1): ONE}, 2) == {(1, 1): ONE}
    assert tn.act_B(1, 1, {(1,): ONE}, 2) == {(1,): mono(-1, 1)}
    assert tn.act_A(1, -1, {(1,): ONE}, 2) == {(1,): mono(-1, -1)}


def test_act_T_cases():
    assert tn.act_T(1, {(1, 2): ONE}) == {(2, 1): ONE}
    assert tn.act_T(1, {(1, 1): ONE}) == {(1, 1): mono(1, 1)}
    assert tn.act_T(1, {(2, 1): ONE}) == {
        (2, 1): mono(1, 1) - mono(-1, 1),
        (1, 2): mono(0, 2),
    }


def test_hecke_relations_as_operators():
    for n, d in [(2, 2), (2, 3), (3, 3)]:
        T1 = tn.op_T(1, n, d)
        lhs = tn.op_compose(T1, T1)
        rhs = tn.op_add(tn.op_scale(T1, mono(1, 1) - mono(-1, 1)),
                        tn.op_scale(tn.op_identity(n, d), mono(0, 2)))
        assert tn.op_eq(lhs, rhs)
        if d >= 3:
            T2 = tn.op_T(2, n, d)
            assert tn.op_eq(
                tn.op_compose(T1, tn.op_compose(T2, T1)),
                tn.op_compose(T2, tn.op_compose(T1, T2)),
            )


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_commute_check(n, d):
    assert all(ok for _, ok in tn.commute_check(n, d))


def test_centralizer_dims_small():
    assert tn.centralizer_dim("hecke", 2, 2) == 10
    assert tn.centralizer_dim("uvt", 2, 2) == 2
    assert tn.centralizer_dim("hecke", 2, 1) == 4
    assert tn.centralizer_dim("hecke", 3, 2) == 45
    assert tn.centralizer_dim("uvt", 3, 2) == 2
    with pytest.raises(ValueError):
        tn.centralizer_dim("hecke", 2, 2, 2, Fraction(1, 2))


def test_centralizer_second_specialization():
    assert tn.centralizer_dim("hecke", 2, 2, 5, 7) == 10
    assert tn.centralizer_dim("uvt", 2, 2, 5, 7) == 2


def test_surjectivity_rank():
    assert tn.surjectivity_rank(2, 2) == 10
    assert tn.surjectivity_rank(2, 1) == 4
    assert tn.surjectivity_rank(3, 2) == 45
    assert tn.surjectivity_rank(2, 0) == 1


@pytest.mark.parametrize("gen", [("E", 1), ("F", 1), ("A", 1, 1), ("A", 2, -1), ("B", 1, 1)])
def test_coproduct_compat_small(gen):
    for d1, d2 in [(1, 1), (1, 2), (2, 1)]:
        full = tn.op_sym(gen, 2, d1 + d2)
        split = {}
        for lw, rw in tn.coproduct_legs(gen):
            split = tn.op_add(split, tn.tensor_word_op((lw, rw), 2, (d1, d2)))
        assert tn.op_eq(full, split)


def test_coproduct_compat_suite():
    assert all(ok for _, ok in tn.coproduct_compat(2, 1, 1))
    assert all(ok for _, ok in tn.coproduct_compat(3, 1, 2))
    assert all(ok for _, ok in tn.coproduct_compat(3, 2, 1))


def _per_vector_tensor_word_op(words, n, degrees):
    """Reference: each leg's word applied generator by generator to its own
    block of every basis vector, the blocks' results multiplied out."""
    def apply_word(word, x):
        for sym in reversed(word):
            x = tn.apply_sym(sym, x, n)
        return x

    cuts = list(itertools.accumulate(degrees, initial=0))
    out = {}
    for r in tn.all_seqs(n, cuts[-1]):
        col = apply_word(words[0], {r[:cuts[1]]: ONE})
        for word, a, b in zip(words[1:], cuts[1:], cuts[2:]):
            leg = apply_word(word, {r[a:b]: ONE})
            col = {s1 + s2: c1 * c2 for s1, c1 in col.items() for s2, c2 in leg.items()}
        if col:
            out[r] = col
    return tn.op_clean(out)


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_word_op_matches_per_vector_reference(n):
    rng = random.Random(20 + n)
    syms = tn.gens(n)
    cases = [(((),), (0,)), (((),), (2,)), (((("E", 1),), ()), (0, 1)),
             (((("F", 1),), (("A", 1, 1),), ()), (1, 0, 2))]
    while len(cases) < 80:
        legs = rng.randint(1, 3)
        degrees = tuple(rng.randint(0, 2) for _ in range(legs))
        if sum(degrees) <= 4:
            words = tuple(tuple(rng.choice(syms) for _ in range(rng.randint(0, 3)))
                          for _ in range(legs))
            cases.append((words, degrees))
    assert any(() in w for w, _ in cases) and any(0 in k for _, k in cases)
    for words, degrees in cases:
        assert tn.tensor_word_op(words, n, degrees) == \
            _per_vector_tensor_word_op(words, n, degrees), (words, degrees)


def _swap_times_v(j, n, d):
    """A wrong T_j: the bare swap of positions j and j+1, scaled by v."""
    return {r: {r[:j - 1] + (r[j], r[j - 1]) + r[j + 1:]: V} for r in tn.all_seqs(n, d)}


def test_checks_read_the_hecke_operators(monkeypatch):
    monkeypatch.setattr(tn, "op_T", _swap_times_v)
    assert not all(ok for _, ok in tn.commute_check(2, 2))
    checks = dict(galois.equivariance_check(2, 2))
    assert checks["equivariance T_1"] is False
    assert all(ok for name, ok in checks.items() if name != "equivariance T_1")


def test_op_word_order():
    # op of the word [E_1, F_1] applies F first
    n, d = 2, 1
    P = tn.op_word([("E", 1), ("F", 1)], n, d)
    assert tn.op_apply(P, {(1,): ONE}) == {(1,): T}
    assert tn.op_apply(P, {(2,): ONE}) == {}


# -- the certified duality path against an exact Fraction reference ---------------

def _frac_matrix(P, n, d, v0, t0):
    seqs = tn.all_seqs(n, d)
    idx = {r: i for i, r in enumerate(seqs)}
    M = [[Fraction(0)] * len(seqs) for _ in seqs]
    for r, col in P.items():
        for s, c in col.items():
            M[idx[s]][idx[r]] = laurent.specialize(c, v0, t0)
    return M


def _frac_commutant_dim(mats, N):
    """N^2 minus the rational rank of the dense Sylvester rows of X M = M X."""
    rows = []
    for M in mats:
        for i in range(N):
            for j in range(N):
                row = [Fraction(0)] * (N * N)
                for k in range(N):
                    row[i * N + k] += M[k][j]
                    row[k * N + j] -= M[i][k]
                rows.append(row)
    return N * N - linalg.frac_rank(rows)


def _frac_word_rank(mats, N):
    """Rational rank of the span of words in mats, closed from the identity."""
    acc = linalg.IncrementalRank()
    frontier = [[[Fraction(int(i == j)) for j in range(N)] for i in range(N)]]
    acc.add([x for row in frontier[0] for x in row])
    while frontier:
        new = []
        for G in mats:
            for M in frontier:
                P = [[sum(a * M[k][j] for k, a in enumerate(G[i]) if a) for j in range(N)]
                     for i in range(N)]
                if acc.add([x for row in P for x in row]):
                    new.append(P)
        frontier = new
    return acc.rank


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("spec", [(2, 3), (5, 7)])
def test_certified_dims_match_fraction_reference(n, d, spec):
    N = n ** d
    u = [_frac_matrix(tn.op_sym(g, n, d), n, d, *spec) for g in tn.gens(n)]
    t = [_frac_matrix(tn.op_T(j, n, d), n, d, *spec) for j in range(1, d)]
    assert tn.centralizer_dim("hecke", n, d, *spec) == _frac_commutant_dim(t, N)
    assert tn.centralizer_dim("uvt", n, d, *spec) == _frac_commutant_dim(u, N)
    assert tn.surjectivity_rank(n, d, *spec) == _frac_word_rank(u, N)


def _mod_ops(n, d, p, spec=(2, 3)):
    idx = {r: i for i, r in enumerate(tn.all_seqs(n, d))}
    v, t = (tn._residue(Fraction(x), p) for x in spec)
    u = [tn._op_mod(tn.op_sym(g, n, d), idx, v, t, p) for g in tn.gens(n)]
    h = [tn._op_mod(tn.op_T(j, n, d), idx, v, t, p) for j in range(1, d)]
    return u, h


@pytest.mark.parametrize("n,d,side", [(3, 3, "hecke"), (3, 2, "uvt")])
def test_component_rank_equals_dense_rank(n, d, side):
    p = linalg.CERT_PRIMES[0]
    u, h = _mod_ops(n, d, p)
    mats = h if side == "hecke" else u
    NN = (n ** d) ** 2
    rows, cols, vals = linalg.commutant_constraint_rows(mats, p)
    dense = np.zeros((len(mats) * NN, NN))
    dense[rows, cols] = vals
    assert linalg.component_rank(rows, cols, vals, NN, p) == linalg.modular_rank(dense, NN, p)


def test_prime_with_unusable_spec_falls_through(monkeypatch):
    p0, p1 = linalg.CERT_PRIMES
    used = []
    upper = linalg.commutant_upper

    def spy(mats, N, p):
        used.append(p)
        return upper(mats, N, p)

    monkeypatch.setattr(linalg, "commutant_upper", spy)
    tn._certificate.cache_clear()
    assert tn.centralizer_dim("hecke", 2, 2, Fraction(3, p0), 7) == 10
    assert tn.centralizer_dim("uvt", 2, 2, p0, 7) == 2
    assert set(used) == {p1}
    with pytest.raises(ArithmeticError):
        tn.centralizer_dim("hecke", 2, 2, Fraction(3, p0 * p1), 7)


def test_planted_bound_disagreement_raises(monkeypatch):
    upper = linalg.commutant_upper
    monkeypatch.setattr(linalg, "commutant_upper", lambda mats, N, p: upper(mats, N, p) + 1)
    tn._certificate.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            tn.centralizer_dim("hecke", 2, 2)
        with pytest.raises(ArithmeticError):
            tn.surjectivity_rank(2, 2)
    finally:
        tn._certificate.cache_clear()
