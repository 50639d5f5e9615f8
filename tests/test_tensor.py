import collections
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtschur import cli, galois, laurent, linalg, schur as sc, stab, tensor as tn
from vtschur.laurent import ONE, T, V, VTPoly, mono
from vtschur.matrices import theta_matrices

from references import dense, frac_rank, mod_rank, op_combo, op_to_elt


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


def op_clean(P):
    """P without its zero entries and empty columns."""
    return {r: col for r, col in ((r, laurent.clean(col)) for r, col in P.items()) if col}


def _ref_op(act, n, d):
    return op_clean({r: act({r: ONE}) for r in tn.all_seqs(n, d)})


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
        rhs = tn.op_add_into(tn.op_scale(T1, mono(1, 1) - mono(-1, 1)),
                             tn.op_identity(n, d), mono(0, 2))
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


@pytest.mark.parametrize("n,d", [(4, 4), (5, 4)])
def test_commute_check_past_the_guard(n, d):
    # every word commutes with the Hecke action: the premise that lets the
    # relation catalogs read only the columns at the sorted sequences, here
    # at the largest sizes whose catalogs README records
    assert all(ok for _, ok in tn.commute_check(n, d))


def test_commute_check_sees_a_planted_generator_column():
    # E_1 at (3, 2) with its column at the unsorted (2, 1) scaled by 2: only
    # E_1 stops commuting with T_1
    tn.op_sym.cache_clear()
    try:
        P = tn.op_sym(("E", 1), 3, 2)
        P[(2, 1)] = {s: c * 2 for s, c in P[(2, 1)].items()}
        fails = [name for name, ok in tn.commute_check(3, 2) if not ok]
    finally:
        tn.op_sym.cache_clear()
    assert fails == ["('E', 1) with T_1"]


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
            tn.op_add_into(split, tn.tensor_word_op((lw, rw), 2, (d1, d2)))
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
    return op_clean(out)


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
    return op_clean({r: reference_op_apply(P, col) for r, col in Q.items()})


def reference_op_add(P, Q):
    out = {r: dict(col) for r, col in P.items()}
    for r, col in Q.items():
        out[r] = reference_elt_add(out.get(r, {}), col)
    return op_clean(out)


def reference_op_scale(P, poly):
    return op_clean({r: laurent.elt_scale(col, poly) for r, col in P.items()})


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
    # sums and differences through op_add_into, into a fresh operator
    Q = {**Q, **_negated_part(P, keep)}
    before = _layout(P), _layout(Q)
    results = [
        (tn.op_add_into(tn.op_add_into({}, P), Q), reference_op_add(P, Q)),
        (tn.op_add_into(tn.op_add_into({}, P), Q, -1), reference_op_add(P, reference_op_scale(Q, -ONE))),
        (tn.op_scale(P, poly), reference_op_scale(P, poly)),
        (tn.op_scale(Q, poly), reference_op_scale(Q, poly)),
    ]
    for got, want in results:
        assert got == want and _is_clean(got)
        assert not _shared_columns(got, P, Q)
        if _is_clean(P):
            # the key order too, wherever the first operand is clean
            assert _layout(got) == _layout(want)
    assert tn.op_add_into(tn.op_add_into({}, P), P, -1) == {}
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
    got = op_combo(combo, n, d)
    assert _layout(got) == _layout(reference_op_combo(combo, n, d))
    assert _is_clean(got) and not _shared_columns(got, *cached)
    # the columns at the sorted sequences are those of the whole operator
    cols = tn.combo_columns(combo, n, d)
    assert cols == {s: col for s, col in got.items() if s == tuple(sorted(s))}
    assert _is_clean(cols) and not _shared_columns(cols, *cached)
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
    assert op_to_elt(got, n, d) == laurent.clean(x)
    assert [_layout(P) for P in cached] == before


# -- the clean contract: no operator or element holds a zero, so op_eq is P == Q ----

def _run_suite(suite, *flags):
    args = cli.build_parser().parse_args(["verify", suite, *flags])
    return cli.run_suite(suite, vars(args))


def test_op_eq_operands_are_clean(monkeypatch):
    compared, unclean = [0], []

    def op_eq(P, Q):
        compared[0] += 1
        unclean.extend(X for X in (P, Q) if not _is_clean(X))
        return P == Q

    monkeypatch.setattr(tn, "op_eq", op_eq)
    for suite, flags in [("uvt", ("--n", "3", "--d", "3")), ("star", ("--n", "3")),
                         ("descend", ("--n", "3", "--d", "3")),
                         ("jparity-tilde", ("--n", "3", "--d", "3", "--m", "2")),
                         ("jparity-hat", ("--n", "4", "--d", "3"))]:
        assert _run_suite(suite, *flags).passed, suite
    assert all(ok for _, ok in tn.coproduct_compat(3, 1, 2))
    assert compared[0] and not unclean


def test_products_hold_no_zero_coefficient(monkeypatch):
    calls, zeros = collections.Counter(), []

    def watch(mod, name, element=lambda out: out):
        fn = getattr(mod, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name] += 1
            zeros.extend((name, k) for k, c in element(out).items() if not c)
            return out

        monkeypatch.setattr(mod, name, wrapped)

    for name in ("chev_mul", "expand_word", "product_via_operators"):
        watch(sc, name)
    watch(sc, "triangular_product", lambda out: out[0])
    watch(stab, "stab_mul")
    assert _run_suite("schur", "--n", "3", "--d", "3").passed
    assert _run_suite("stab", "--n", "3", "--window", "3").passed
    for A in theta_matrices(3, 3):
        sc.triangular_product(A)
    # (E + F)(F - E): terms of E F and of F E cancel inside one product,
    # by the Chevalley rule and through the operator model
    E, F = sc.gen_elt(("E", 1), 3, 3), sc.gen_elt(("F", 1), 3, 3)
    x, y = sc.elt_add(E, F), sc.elt_add(F, sc.elt_scale(E, -ONE))
    sc.chev_mul(x, y)
    sc.product_via_operators(x, y, 3, 3)
    # seeded general products
    rng = random.Random(33)
    thetas = theta_matrices(3, 3)
    for _ in range(3):
        x, y = ({A: mono(rng.randint(-1, 1), rng.randint(-1, 1), rng.choice((-1, 2)))
                 for A in rng.sample(thetas, 2)} for _ in range(2))
        sc.product_via_operators(x, y, 3, 3)
    assert set(calls) == {"chev_mul", "expand_word", "triangular_product", "stab_mul",
                          "product_via_operators"}
    assert not zeros


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
    return N * N - frac_rank(rows)


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
    N = n ** d
    rows = linalg.commutant_constraint_rows(mats, N)
    assert linalg.modular_rank(rows, N * N, p) == mod_rank(dense(rows, N * N), p)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_commutant_upper_equals_full_sylvester_nullity(n, d):
    p = linalg.CERT_PRIMES[0]
    N = n ** d
    for mats in _mod_ops(n, d, p):
        full = N * N - linalg.modular_rank(linalg.commutant_constraint_rows(mats, N), N * N, p)
        assert linalg.commutant_upper(mats, N, p) == full


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (4, 2), (3, 3)])
@pytest.mark.parametrize("spec", [(2, 3), (5, 7)])
def test_inverse_free_closure_matches_all_generators(n, d, spec):
    cert = tn.certificate(n, d, *spec)
    u, _ = _mod_ops(n, d, cert.prime, spec)
    free = [op for g, op in zip(tn.gens(n), u) if g[2:] != (-1,)]
    N = n ** d
    ident = {i * N + i: 1 for i in range(N)}
    closure = linalg.mod_span_closure([ident], u, cert.prime, stop=cert.hecke[1])
    assert closure == (cert.hecke[0], cert.rounds)
    assert (linalg.mod_span_closure([ident], free, cert.prime)
            == linalg.mod_span_closure([ident], u, cert.prime))


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


@pytest.mark.parametrize("n,d,spec", [
    *((n, d, spec) for n, d in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (4, 3)]
      for spec in [(2, 3), (5, 7)]),
    (4, 4, (2, 3)),
])
def test_column_bounds_match_whole_matrix_references(n, d, spec):
    """The Hecke side's bounds on the s_mu columns against the whole-matrix
    ones: the eigenspace bound is the full Sylvester nullity of the T_j, and
    the closure of the words from the columns of the identity at the s_mu has
    the rank and rounds of the closure from the whole identity."""
    cert = tn.certificate(n, d, *spec)
    p, N = cert.prime, n ** d
    u, h = _mod_ops(n, d, p, spec)
    assert cert.hecke[1] == linalg.commutant_upper(h, N, p)
    free = [op for g, op in zip(tn.gens(n), u) if g[2:] != (-1,)]
    ident = {i * N + i: 1 for i in range(N)}
    assert (linalg.mod_span_closure([ident], free, p, stop=cert.hecke[1])
            == (cert.hecke[0], cert.rounds))


@pytest.mark.parametrize("at", ["rising", "equal", "falling"])
def test_planted_T_column_raises(monkeypatch, at):
    """A doubled rising column of T_1 breaks the generation lemma, and a
    doubled column at equal entries the eigenvalue vt, that the eigenspace
    bound rests on; a doubled t^2 entry of a falling column breaks the
    quadratic rule and shrinks the eigenspaces.  Unchecked, the closure
    would stop at the lowered bound and certify a wrong dimension
    (hecke=(8, 8) at (2, 2) for the falling one); the certificate raises."""
    op_T = tn.op_T

    def planted(j, n, d):
        T = op_T(j, n, d)
        if j != 1:
            return T
        at_j = {"rising": operator.lt, "equal": operator.eq, "falling": operator.gt}[at]
        r = next(r for r in T if at_j(r[0], r[1]))
        s = r[1::-1] + r[2:]  # the swap, r itself at equal entries
        return {**T, r: {**T[r], s: T[r][s] + T[r][s]}}

    monkeypatch.setattr(tn, "op_T", planted)
    tn._certificate.cache_clear()
    try:
        for n, d in [(2, 2), (3, 3)]:
            with pytest.raises(ArithmeticError, match="quadratic rule" if at == "falling" else "generation lemma"):
                tn.certificate(n, d)
    finally:
        tn._certificate.cache_clear()


def test_planted_missing_seed_raises(monkeypatch):
    """Closed without one s_mu column, the words miss the projection onto
    that content's weight space, so the lower bound cannot meet the upper."""
    closure = linalg.mod_span_closure

    def drop_one(seeds, *args, **kwargs):
        # the Hecke side's closure is the one with a seed per content
        return closure(seeds[1:] if len(seeds) > 1 else seeds, *args, **kwargs)

    monkeypatch.setattr(linalg, "mod_span_closure", drop_one)
    tn._certificate.cache_clear()
    try:
        for n, d in [(2, 2), (3, 3)]:
            with pytest.raises(ArithmeticError, match="disagree"):
                tn.certificate(n, d)
    finally:
        tn._certificate.cache_clear()


def test_certificate_adds_few_entries(monkeypatch):
    """A cold certificate(4, 3) passes at most 30,000 nonzero entries to the
    accumulator: 20,221 on the s_mu columns, against 182,320 when both
    Hecke-side bounds took the whole N x N matrix."""
    add, entries = linalg.ModIncrementalRank.add, []

    def spy(self, row):
        entries.append(sum(1 for x in row.values() if x % self.p))
        return add(self, row)

    monkeypatch.setattr(linalg.ModIncrementalRank, "add", spy)
    tn._certificate.cache_clear()
    try:
        assert tn.certificate(4, 3).hecke == (816, 816)
    finally:
        tn._certificate.cache_clear()
    assert sum(entries) <= 30_000
