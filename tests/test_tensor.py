import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtschur import galois, laurent, linalg, schur as sc, tensor as tn
from vtschur.laurent import ONE, T, V, VTPoly, mono
from vtschur.matrices import theta_matrices


def _col(sym, r, n=2):
    """Column r of the cached operator of sym on V^{len(r)}."""
    return tn.op_sym(sym, n, len(r)).get(r, {})


def test_act_E_examples():
    assert _col(("E", 1), (2,)) == {(1,): T}
    assert _col(("E", 1), (1,)) == {}
    out = _col(("E", 1), (2, 2))
    # p=1 sees the second entry 2 (delta_{2, r_2} = 1): v^{-1} t^2; p=2 sees nothing: t
    assert out == {(1, 2): mono(-1, 2), (2, 1): mono(0, 1)}


def test_act_F_examples():
    out = _col(("F", 1), (1, 1))
    assert out == {(2, 1): ONE, (1, 2): mono(-1, 1)}
    assert _col(("F", 1), (2,)) == {}


def test_act_diag():
    assert _col(("A", 1, 1), (1, 1)) == {(1, 1): mono(2, 2)}
    assert _col(("B", 2, 1), (1, 1)) == {(1, 1): ONE}
    assert _col(("B", 1, 1), (1,)) == {(1,): mono(-1, 1)}
    assert _col(("A", 1, -1), (1,)) == {(1,): mono(-1, -1)}


def test_act_T_cases():
    assert tn.op_T(1, 2, 2)[(1, 2)] == {(2, 1): ONE}
    assert tn.op_T(1, 2, 2)[(1, 1)] == {(1, 1): mono(1, 1)}
    assert tn.op_T(1, 2, 2)[(2, 1)] == {
        (2, 1): mono(1, 1) - mono(-1, 1),
        (1, 2): mono(0, 2),
    }


# -- reference: the defining actions applied to a vector, written out per generator --

def _act_E(i, x):
    out = {}
    for r, c in x.items():
        for p, rp in enumerate(r):
            if rp != i + 1:
                continue
            va = sum((r[j] == i) - (r[j] == i + 1) for j in range(p + 1, len(r)))
            ta = 1 + sum((r[j] == i) + (r[j] == i + 1) for j in range(p + 1, len(r)))
            tgt = r[:p] + (i,) + r[p + 1:]
            out[tgt] = out.get(tgt, laurent.ZERO) + c * mono(va, ta)
    return laurent.clean(out)


def _act_F(i, x):
    out = {}
    for r, c in x.items():
        for p, rp in enumerate(r):
            if rp != i:
                continue
            va = sum((r[j] == i + 1) - (r[j] == i) for j in range(p))
            ta = sum((r[j] == i) + (r[j] == i + 1) for j in range(p))
            tgt = r[:p] + (i + 1,) + r[p + 1:]
            out[tgt] = out.get(tgt, laurent.ZERO) + c * mono(va, ta)
    return laurent.clean(out)


def _act_A(a, sign, x):
    out = {}
    for r, c in x.items():
        k = sign * sum(rj == a for rj in r)
        out[r] = c * mono(k, k)
    return laurent.clean(out)


def _act_B(a, sign, x):
    out = {}
    for r, c in x.items():
        k = sum(rj == a for rj in r)
        out[r] = c * mono(-sign * k, sign * k)
    return laurent.clean(out)


def _act_T(j, x):
    out = {}
    for r, c in x.items():
        a, b = r[j - 1], r[j]
        swapped = r[:j - 1] + (b, a) + r[j + 1:]
        if a < b:
            out[swapped] = out.get(swapped, laurent.ZERO) + c
        elif a == b:
            out[r] = out.get(r, laurent.ZERO) + c * mono(1, 1)
        else:
            out[r] = out.get(r, laurent.ZERO) + c * (mono(1, 1) - mono(-1, 1))
            out[swapped] = out.get(swapped, laurent.ZERO) + c * mono(0, 2)
    return laurent.clean(out)


def _act_sym(sym, x):
    act = {"E": _act_E, "F": _act_F, "A": _act_A, "B": _act_B}[sym[0]]
    return act(*sym[1:], x)


def _ref_op(act, n, d):
    return tn.op_clean({r: act({r: ONE}) for r in tn.all_seqs(n, d)})


def test_generator_operators_match_per_vector_actions():
    for n in range(1, 5):
        for d in range(4):
            for sym in tn.gens(n):
                want = _ref_op(lambda x: _act_sym(sym, x), n, d)
                assert repr(tn.op_sym(sym, n, d)) == repr(want), (sym, n, d)
            for j in range(1, d):
                want = _ref_op(lambda x: _act_T(j, x), n, d)
                assert repr(tn.op_T(j, n, d)) == repr(want), (j, n, d)
    with pytest.raises(ValueError):
        tn.op_sym(("X", 1), 2, 0)


def test_cartan_weight():
    assert tn.cartan_weight(("A", 1, 1), 2) == mono(2, 2)
    assert tn.cartan_weight(("A", 3, -1), 1) == mono(-1, -1)
    assert tn.cartan_weight(("B", 1, 1), 1) == mono(-1, 1)
    assert tn.cartan_weight(("B", 2, -1), 3) == mono(3, -3)
    assert tn.cartan_weight(("B", 2, 1), 0) == ONE


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
    def apply_word(word, block):
        x = {block: ONE}
        for sym in reversed(word):
            x = tn.op_apply(tn.op_sym(sym, n, len(block)), x)
        return x

    cuts = list(itertools.accumulate(degrees, initial=0))
    out = {}
    for r in tn.all_seqs(n, cuts[-1]):
        col = apply_word(words[0], r[:cuts[1]])
        for word, a, b in zip(words[1:], cuts[1:], cuts[2:]):
            leg = apply_word(word, r[a:b])
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


# -- the add-into kernel against the copy-per-term operations it replaced ----------
# reference_* are those operations as written before the kernel: every sum
# copied its left operand, every result went through op_clean.

def reference_elt_add(x, y):
    out = dict(x)
    for k, c in y.items():
        s = out.get(k, laurent.ZERO) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def reference_op_apply(P, x):
    out = {}
    for r, c in x.items():
        out = reference_elt_add(out, laurent.elt_scale(P.get(r, {}), c))
    return out


def reference_op_compose(P, Q):
    return tn.op_clean({r: reference_op_apply(P, col) for r, col in Q.items()})


def reference_op_add(P, Q):
    out = {r: dict(col) for r, col in P.items()}
    for r, col in Q.items():
        out[r] = reference_elt_add(out.get(r, {}), col)
    return tn.op_clean(out)


def reference_op_scale(P, poly):
    return tn.op_clean({r: laurent.elt_scale(col, poly) for r, col in P.items()})


def reference_op_word(word, n, d):
    P = tn.op_identity(n, d)
    for sym in reversed(word):
        P = reference_op_compose(tn.op_sym(sym, n, d), P)
    return P


def reference_op_combo(combo, n, d):
    out = {}
    for poly, word in combo:
        if poly:
            out = reference_op_add(out, reference_op_scale(reference_op_word(word, n, d), poly))
    return out


KERNEL = settings(max_examples=80, deadline=None, derandomize=True)
# few exponents and unit coefficients, so that sums cancel often; zero
# polynomials and empty columns are drawn on purpose
small_polys = st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1), (-1, 1)]),
                              st.integers(-1, 1), max_size=2).map(VTPoly)
SEQS = tn.all_seqs(2, 2)
columns = st.dictionaries(st.sampled_from(SEQS), small_polys, max_size=4)
operators = st.dictionaries(st.sampled_from(SEQS), columns, max_size=4)
words = st.lists(st.sampled_from(tn.gens(2)), max_size=4).map(tuple)


def _layout(P):
    """Keys in order, columns and their entries, and every coefficient."""
    return repr(P)


def _is_clean(P):
    return all(col and all(col.values()) for col in P.values())


def _shared_columns(R, *ops):
    """Columns of R that are column dicts of ops: adding into R would change them."""
    theirs = {id(col) for P in ops for col in P.values()}
    return [r for r, col in R.items() if id(col) in theirs]


def _negated_part(P, keep):
    """Some columns of P negated entry by entry, to cancel against P."""
    return {r: {s: -c for s, c in col.items()} for i, (r, col) in enumerate(P.items()) if keep >> i & 1}


@KERNEL
@given(operators, operators, st.integers(0, 15))
def test_op_compose_and_apply_match_reference(P, Q, keep):
    Q = reference_op_add(Q, _negated_part(Q, keep)) if keep % 3 else Q
    before = _layout(P), _layout(Q)
    got = tn.op_compose(P, Q)
    assert _layout(got) == _layout(reference_op_compose(P, Q))
    assert _is_clean(got) and not _shared_columns(got, P, Q)
    for col in Q.values():
        assert _layout(tn.op_apply(P, col)) == _layout(reference_op_apply(P, col))
    assert (_layout(P), _layout(Q)) == before


@KERNEL
@given(operators, operators, small_polys, st.integers(0, 15))
def test_op_add_sub_scale_match_reference(P, Q, poly, keep):
    Q = {**Q, **_negated_part(P, keep)}
    before = _layout(P), _layout(Q)
    results = [
        (tn.op_add(P, Q), reference_op_add(P, Q)),
        (tn.op_sub(P, Q), reference_op_add(P, reference_op_scale(Q, -ONE))),
        (tn.op_scale(P, poly), reference_op_scale(P, poly)),
        (tn.op_scale(Q, poly), reference_op_scale(Q, poly)),
    ]
    for got, want in results:
        assert got == want and _is_clean(got)
        assert not _shared_columns(got, P, Q)
        if _is_clean(P):
            # the key order too, wherever the first operand is clean
            assert _layout(got) == _layout(want)
    assert tn.op_sub(P, P) == {}
    assert (_layout(P), _layout(Q)) == before


def _cached_operators(n, d):
    ops = [tn.op_sym(g, n, d) for g in tn.gens(n)] + [tn.op_T(j, n, d) for j in range(1, d)]
    if n >= d:
        ops += [sc.braced_op(A, n, d) for A in theta_matrices(n, d)]
    return ops


@KERNEL
@given(st.lists(st.tuples(st.just(ONE) | small_polys, words), max_size=4), st.integers(1, 2))
def test_op_word_and_combo_match_reference(combo, d):
    n = 2
    cached = _cached_operators(n, d)
    before = [_layout(P) for P in cached]
    for _poly, word in combo:
        assert _layout(tn.op_word(word, n, d)) == _layout(reference_op_word(word, n, d))
    got = tn.op_combo(combo, n, d)
    assert _layout(got) == _layout(reference_op_combo(combo, n, d))
    assert _is_clean(got) and not _shared_columns(got, *cached)
    assert [_layout(P) for P in cached] == before


def test_one_symbol_word_is_the_cached_operator():
    for g in tn.gens(2):
        assert tn.op_word([g], 2, 2) is tn.op_sym(g, 2, 2)
    assert tn.op_word((), 2, 2) == tn.op_identity(2, 2)
    assert tn.op_word((), 2, 2) is not tn.op_word((), 2, 2)


thetas22 = st.sampled_from(theta_matrices(2, 2))
elements22 = st.dictionaries(thetas22, small_polys, max_size=4)


@KERNEL
@given(elements22)
def test_element_operators_match_reference(x):
    n = d = 2
    cached = _cached_operators(n, d)
    before = [_layout(P) for P in cached]
    want = {}
    for A, c in x.items():
        want = reference_op_add(want, reference_op_scale(sc.braced_op(A, n, d), c))
    got = sc.elt_op(x, n, d)
    assert _layout(got) == _layout(want) and not _shared_columns(got, *cached)
    assert sc.op_to_elt(got, n, d) == laurent.clean(x)
    assert [_layout(P) for P in cached] == before


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
