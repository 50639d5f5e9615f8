import collections
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from vtschur import jparity, laurent, schur as sc, tensor, uvt
from vtschur.laurent import ONE, mono
from vtschur.matrices import (
    add as mat_add, co, compositions, diag, dminusr, mat, ro, theta_matrices, unit as mat_unit,
)

from references import (
    braced_op as reference_braced_op, chev_mul_per_term, chevalley_column, height,
    height_closed_form, op_to_elt, peel_order,
)


def test_gen_elements_small():
    # n=2, d=1: A_1 = vt {diag(1,0)} + {diag(0,1)}
    out = sc.gen_elt(("A", 1, 1), 2, 1)
    assert out == {diag((1, 0)): mono(1, 1), diag((0, 1)): ONE}
    # E_1 has the single braced term t {E_12}
    assert sc.gen_elt(("E", 1), 2, 1) == {mat_unit(2, 1, 2): laurent.T}
    # inverse diagonals multiply to the unit
    prod = sc.chev_mul(sc.gen_elt(("A", 1, 1), 2, 1), sc.gen_elt(("A", 1, -1), 2, 1))
    assert prod == sc.unit(2, 1)


def test_mult_chevE_examples():
    # {E_12} * {diag(0,1)} = {E_12}: the single admissible move
    B = mat_unit(2, 1, 2)
    A = diag((0, 1))
    assert sc.lmul_braced(B, {A: ONE}) == {B: ONE}
    # diagonal left factor acts as a row-profile filter
    D = diag((1, 1))
    x = {diag((1, 1)): ONE, diag((2, 0)): ONE}
    assert sc.lmul_braced(D, x) == {diag((1, 1)): ONE}
    # the binomial case, checked against the counting oracle by hand:
    # {E_11 + E_12} * {E_11 + E_21} = v t (v^{-2} + 1) {2 E_11}
    B = mat([[1, 1], [0, 0]])
    A = mat([[1, 0], [1, 0]])
    out = sc.lmul_braced(B, {A: ONE})
    assert out == {mat([[2, 0], [0, 0]]): mono(1, 1) * (mono(-2, 0) + 1)}


def test_mult_chevF_examples():
    C = mat_unit(2, 2, 1)
    A = diag((1, 0))
    assert sc.lmul_braced(C, {A: ONE}) == {C: ONE}
    # mirror binomial case
    C = mat([[0, 0], [1, 1]])
    A = mat([[0, 1], [0, 1]])
    out = sc.lmul_braced(C, {A: ONE})
    assert list(out) == [mat([[0, 0], [0, 2]])]


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_chev_mul_matches_operator_model(n, d):
    # seeded random Chevalley-shaped left factors, both shapes and every
    # r <= d, against the general product of the faithful operator model
    rng = random.Random(100 * n + d)
    thetas = theta_matrices(n, d)
    chev = [B for B in thetas if sc.chev_shape(B) is not None]
    by_shape = {}
    for B in chev:
        kind, _h, r = sc.chev_shape(B)
        if kind != "diag":
            by_shape.setdefault((kind, r), []).append(B)
    assert sorted(by_shape) == [(k, r) for k in "EF" for r in range(1, d + 1)]

    def poly():
        return mono(rng.randint(-2, 2), rng.randint(-1, 1), rng.choice((-2, -1, 1, 3))) + \
            mono(rng.randint(-2, 2), rng.randint(-1, 1))

    nonzero = 0
    for _key, lefts in sorted(by_shape.items()):
        for _ in range(2):
            B = rng.choice(lefts)
            x = {B: poly(), rng.choice(chev): poly()}
            matching = [A for A in thetas if ro(A) == co(B)]
            y = {A: poly() for A in rng.sample(matching, min(3, len(matching)))}
            y.update((A, poly()) for A in rng.sample(thetas, 2))
            got = sc.chev_mul(x, y)
            assert got == sc.product_via_operators(x, y, n, d), (B, x, y)
            nonzero += bool(got)
    assert nonzero == 2 * len(by_shape)


def reference_lmul(B, x, stab=False):
    """The closed-form Chevalley rule written out term by term, unmemoized:
    {B} {A} = sum over t in N^n with sum r of v^beta t^alpha prod_u
    bar[a_{hu} + t_u choose t_u] {A_t}, for B - r E_{h,h+1} diagonal (E) or
    B - r E_{h+1,h} diagonal (F, the columns read in reverse order)."""
    kind, h, r = sc.chev_shape(B)
    n = len(B)
    out = {}
    for A, cA in x.items():
        if kind == "diag":
            if ro(A) == co(B):
                out[A] = out.get(A, laurent.ZERO) + cA
            continue
        assert ro(A) == co(B)
        src, tgt = (h, h - 1) if kind == "E" else (h - 1, h)
        later = (lambda j, u: j > u) if kind == "E" else (lambda j, u: j < u)
        for tv in itertools.product(range(r + 1), repeat=n):
            if sum(tv) != r:
                continue
            At = [list(row) for row in A]
            for u in range(n):
                At[tgt][u] += tv[u]
                At[src][u] -= tv[u]
            if any(At[src][u] < 0 for u in range(n) if u != src or not stab):
                continue
            s_tgt = sum(tv[u] * A[tgt][j] for u in range(n) for j in range(n) if j == u or later(j, u))
            s_src = sum(tv[u] * A[src][j] for u in range(n) for j in range(n) if later(j, u))
            s_tt = sum(tv[u] * tv[w] for u in range(n) for w in range(u + 1, n))
            coef = mono(s_tgt - s_src + s_tt, s_tgt + s_src - s_tt)
            for u in range(n):
                coef = coef * laurent.qbinom_bar(A[tgt][u] + tv[u], tv[u])
            At = tuple(map(tuple, At))
            out[At] = out.get(At, laurent.ZERO) + cA * coef
    return sc.clean(out)


def reference_chev_mul(x, y, stab=False):
    out = {}
    for B, c in x.items():
        sub = {A: cA for A, cA in y.items() if ro(A) == co(B)}
        if sub:
            out = laurent.elt_add(out, laurent.elt_scale(reference_lmul(B, sub, stab), c))
    return sc.clean(out)


def _chev_with_diagonals(n, d, lams):
    """Every Chevalley shape of E or F type with r <= d, on each diagonal of lams."""
    out = []
    for kind, h, r in itertools.product("EF", range(1, n), range(1, d + 1)):
        off = mat_unit(n, h, h + 1, r) if kind == "E" else mat_unit(n, h + 1, h, r)
        out += [mat_add(off, diag(lam)) for lam in lams]
    return out


def _cancelling_pair(rng, B, A1, stab):
    """A second right term A2 and coefficients such that {B} {A1} and
    {B} {A2} collide at a matrix M and the M coefficient cancels, or None.

    A1 moved by t1 equals A2 moved by t2 when A2 is A1 moved by t1 - t2."""
    kind, h, r = sc.chev_shape(B)
    n = len(B)
    src, tgt = (h, h - 1) if kind == "E" else (h - 1, h)
    comps = [tv for tv in itertools.product(range(r + 1), repeat=n) if sum(tv) == r]
    p1 = reference_lmul(B, {A1: ONE}, stab)
    moves = list(itertools.permutations(comps, 2))
    rng.shuffle(moves)
    for t1, t2 in moves:
        A2 = [list(row) for row in A1]
        for u in range(n):
            A2[tgt][u] += t1[u] - t2[u]
            A2[src][u] -= t1[u] - t2[u]
        if any(A2[i][j] < 0 for i in range(n) for j in range(n) if i != j or not stab):
            continue
        A2 = tuple(map(tuple, A2))
        M = list(A1)
        M[tgt] = tuple(a + t for a, t in zip(A1[tgt], t1))
        M[src] = tuple(a - t for a, t in zip(A1[src], t1))
        p2 = reference_lmul(B, {A2: ONE}, stab)
        M = tuple(M)
        if M in p1 and M in p2:
            return {A1: p2[M], A2: -p1[M]}, M
    return None


@pytest.mark.parametrize("stab", [False, True])
def test_chevalley_rule_matches_reference(stab):
    # seeded elements whose terms collide and cancel, finite (n, d) = (3, 3)
    # and limit matrices with negative diagonals; cold and warm memo
    rng = random.Random(7 + stab)
    n = 3
    if stab:
        lams = list(itertools.product(range(-2, 2), repeat=n))
        lefts = _chev_with_diagonals(n, 2, rng.sample(lams, 6))
        rights = [mat_add(M, diag(lam)) for M in theta_matrices(n, 2)
                  if all(M[i][i] == 0 for i in range(n)) for lam in lams]
    else:
        thetas = theta_matrices(n, 3)
        lefts = [B for B in thetas if sc.chev_shape(B) is not None]
        rights = thetas

    def poly():
        return mono(rng.randint(-2, 2), rng.randint(-1, 1), rng.choice((-2, -1, 1, 3))) + \
            mono(rng.randint(-2, 2), rng.randint(-1, 1))

    cancelled = 0
    for trial in range(24):
        if trial % 3 == 0:
            sc._row_moves.cache_clear()
        B = rng.choice(lefts)
        matching = [A for A in rights if ro(A) == co(B)]
        y = {A: poly() for A in rng.sample(matching, min(3, len(matching)))}
        pair = None if sc.chev_shape(B)[0] == "diag" else _cancelling_pair(rng, B, rng.choice(matching), stab)
        if pair is not None:
            y, M = pair
            assert M not in sc.lmul_braced(B, y, stab)
            cancelled += 1
        x = {B: poly(), rng.choice(lefts): poly()}
        y.update((A, poly()) for A in rng.sample(rights, 2) if A not in y)
        sub = {A: c for A, c in y.items() if ro(A) == co(B)}
        for _ in range(2):  # the second pass reads every row rule from the memo
            got = sc.lmul_braced(B, sub, stab)
            assert got == reference_lmul(B, sub, stab)
            prod = sc.chev_mul(x, y, stab)
            assert prod == reference_chev_mul(x, y, stab), (x, y)
            assert all(c for c in got.values()) and all(c for c in prod.values())
    assert cancelled >= 6, cancelled
    assert sc._row_moves.cache_info().hits > 0


@pytest.mark.parametrize("stab", [False, True])
def test_chev_mul_matches_per_term_reference(stab):
    # one left factor mixes E, F and diagonal terms with unit and non-unit
    # coefficients, so chev_mul groups several shapes; with stab=True the
    # diagonals go negative; some products cancel inside a shape's group
    # (_cancelling_pair) and some across groups (a diagonal term takes back
    # what an E or F term put in)
    rng = random.Random(23 + stab)
    n = 3
    lams = list(itertools.product(range(-2, 2) if stab else range(3), repeat=n))
    lefts = _chev_with_diagonals(n, 2, rng.sample(lams, 8))
    by_kind = {k: [L for L in lefts if sc.chev_shape(L)[0] == k] for k in "EF"}
    rights = [mat_add(M, diag(lam)) for M in theta_matrices(n, 2)
              if all(M[i][i] == 0 for i in range(n)) for lam in lams]

    def poly():
        return rng.choice((ONE, mono(rng.randint(-2, 2), rng.randint(-1, 1), rng.choice((-2, 1, 3)))
                           + mono(rng.randint(-2, 2), rng.randint(-1, 1))))

    cancelled = 0
    for trial in range(12):
        B = rng.choice(lefts)
        matching = [A for A in rights if ro(A) == co(B)]
        pair = _cancelling_pair(rng, B, rng.choice(matching), stab)
        y = dict(pair[0]) if pair else {}
        y.update((A, poly()) for A in rng.sample(matching, 2) + rng.sample(rights, 4) if A not in y)
        x = {B: poly()}
        for L in [rng.choice(by_kind[k]) for k in "EFEF"] + [diag(ro(A)) for A in rng.sample(rights, 3)]:
            x[L] = poly()
            met = [A for A in rights if ro(A) == co(L)]
            if met:
                y.setdefault(rng.choice(met), poly())
        assert {sc.chev_shape(L)[0] for L in x if any(ro(A) == co(L) for A in y)} == {"diag", "E", "F"}
        prod = sc.chev_mul(x, y, stab)
        assert prod and prod == chev_mul_per_term(x, y, stab)
        assert all(c for c in prod.values())
        # across groups: {diag(ro(B))} with the opposite coefficient removes
        # one term M of c {B} {A}
        A = rng.choice(matching)
        part = sc.lmul_braced(B, {A: ONE}, stab)
        M = rng.choice(sorted(part))
        x2, y2 = {B: x[B], diag(ro(B)): -x[B]}, {A: ONE, M: part[M]}
        prod = sc.chev_mul(x2, y2, stab)
        assert M not in prod and prod == chev_mul_per_term(x2, y2, stab)
        cancelled += pair is not None and pair[1] not in sc.lmul_braced(B, pair[0], stab)
    assert cancelled >= 4, cancelled


@pytest.mark.parametrize("stab", [False, True])
def test_unit_coefficients_match_reference(stab):
    # the kernel skips the product with a unit left coefficient, with a unit
    # right coefficient, and with both; the unmemoized rule multiplies them all
    rng = random.Random(41 + stab)
    n = 3
    lams = list(itertools.product(range(-2, 2) if stab else range(3), repeat=n))
    lefts = _chev_with_diagonals(n, 2, rng.sample(lams, 8)) + [diag(lam) for lam in lams]
    rights = [mat_add(M, diag(lam)) for M in theta_matrices(n, 2)
              if all(M[i][i] == 0 for i in range(n)) for lam in lams]
    coefs = [ONE, ONE, mono(1, -1), mono(0, 1, -2) + ONE]
    seen = set()
    for _ in range(16):
        x = {B: rng.choice(coefs) for B in rng.sample(lefts, 4)}
        y = {}
        for B in x:
            met = [A for A in rights if ro(A) == co(B)]
            y.update((A, rng.choice(coefs)) for A in rng.sample(met, min(2, len(met))))
        seen |= {(x[B] == ONE, y[A] == ONE) for B in x for A in y if ro(A) == co(B)}
        assert sc.chev_mul(x, y, stab) == reference_chev_mul(x, y, stab), (x, y)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_chev_mul_rejects_a_left_term_off_the_chevalley_shapes():
    # the classification is memoized; the second call reads None from the
    # memo and must still raise
    B = mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    x, y = {B: ONE, diag((0, 1, 1)): ONE}, {diag(co(B)): ONE}
    for _ in range(2):
        with pytest.raises(ValueError, match="not Chevalley-shaped"):
            sc.chev_mul(x, y)
    # a left term that meets no right term is skipped unclassified, as before
    assert sc.chev_mul(x, {diag((1, 1, 0)): ONE}) == {}


def test_lmul_braced_errors():
    with pytest.raises(ValueError, match="not Chevalley-shaped"):
        sc.lmul_braced(mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]]), {})
    with pytest.raises(ValueError, match="row/column sums mismatch"):
        sc.lmul_braced(mat_unit(2, 1, 2), {diag((1, 0)): ONE})
    # a diagonal left factor filters instead
    assert sc.lmul_braced(diag((1, 0)), {diag((0, 1)): ONE}) == {}


def test_chev_shape_classes():
    assert sc.chev_shape(diag((-2, 3))) == ("diag", 0, 0)
    assert sc.chev_shape(mat([[-1, 2, 0], [0, 0, 0], [0, 0, 5]])) == ("E", 1, 2)
    assert sc.chev_shape(mat([[0, 0, 0], [0, 0, 0], [0, 3, -4]])) == ("F", 2, 3)
    # two off-diagonal entries, a non-adjacent one, or a negative one
    assert sc.chev_shape(mat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])) is None
    assert sc.chev_shape(mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])) is None
    assert sc.chev_shape(((0, -1), (0, 0))) is None
    assert sc.chev_shape(((0, 0), (-2, 3))) is None


def test_row_column_support():
    # products only contain matrices with the forced row/column profiles
    rng = random.Random(1)
    thetas = theta_matrices(2, 2)
    for B in thetas:
        shape = sc.chev_shape(B)
        if shape is None or shape[0] == "diag":
            continue
        for A in thetas:
            if ro(A) != co(B):
                continue
            for C, c in sc.lmul_braced(B, {A: ONE}).items():
                assert ro(C) == ro(B) and co(C) == co(A)


def braced_to_e(x):
    """{A} = v^{-m} t^m e_A, so the e-coefficient picks up v^{-m} t^m."""
    return {A: c * mono(-dminusr(A), dminusr(A)) for A, c in x.items()}


def e_to_braced(x):
    return {A: c * mono(dminusr(A), -dminusr(A)) for A, c in x.items()}


def test_basis_roundtrip():
    rng = random.Random(3)
    thetas = theta_matrices(3, 2)
    for _ in range(200):
        x = {rng.choice(thetas): mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3))
             for _ in range(3)}
        x = sc.clean(x)
        assert e_to_braced(braced_to_e(x)) == x


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_relation_suite(n, d):
    checks = sc.verify_relations(n, d)
    failed = [name for name, ok in checks if not ok and not name.startswith("expect-fail")]
    assert not failed
    # the printed F-line exponent of the Cartan conjugation must really differ
    printed = [ok for name, ok in checks if name.startswith("expect-fail")]
    assert printed and not any(printed)


def test_relation_catalogs_read_one_transcription(monkeypatch):
    # the braced-element catalog and the projector catalog read R1-R4 from
    # uvt.relation_instances: doubling the right side of R3 at i = j = 1
    # flips exactly the checks built from that instance
    def run():
        return sc.verify_relations(3, 2), jparity.verify_tilde_relations(3, 2, 1)

    before = run()
    real = uvt.relation_instances

    def planted(rel, n, **kw):
        return [(name, lhs, [(c * 2, w) for c, w in rhs] if name == "R3 1,1" else rhs)
                for name, lhs, rhs in real(rel, n, **kw)]

    monkeypatch.setattr(uvt, "relation_instances", planted)
    flipped = []
    for old, new in zip(before, run()):
        assert [name for name, _ in old] == [name for name, _ in new]
        flipped.append([name for (name, a), (_, b) in zip(old, new) if a != b])
    assert flipped == [["R3 i=1 j=1"], ["base R3 1,1", "model cartan denominator i=1"]]


def test_expand_word_cases():
    # [E_1, F_1] on (2,1) reproduces the balanced Cartan combination
    n, d = 2, 1
    comm = sc.elt_add(
        sc.expand_word([("E", 1), ("F", 1)], n, d),
        sc.elt_scale(sc.expand_word([("F", 1), ("E", 1)], n, d), -ONE),
    )
    assert sc.clean(comm) == sc.clean(sc.cartan_elt(1, n, d))
    # adjacent inverses cancel
    assert sc.expand_word([("A", 1, 1), ("A", 1, -1)], n, d) == sc.unit(n, d)
    # E_1^2 dies at d = 1
    assert sc.expand_word([("E", 1), ("E", 1)], n, d) == {}


def test_preceq():
    A = mat([[0, 1], [1, 0]])
    D = diag((1, 1))
    assert sc.preceq(A, A) and not sc.prec(A, A)
    assert sc.preceq(D, A) and sc.prec(D, A)
    assert not sc.preceq(A, D)
    # antisymmetry over all of Theta_2 (n=2)
    thetas = theta_matrices(2, 2)
    for X in thetas:
        for Y in thetas:
            if sc.preceq(X, Y) and sc.preceq(Y, X):
                assert X == Y


@pytest.mark.parametrize("n,d", [(n, d) for n in range(2, 5) for d in range(4)]
                         + [(1, d) for d in range(5)])
def test_theta_matrices_match_brute_force(n, d):
    # every natural n x n matrix summing to d, each once, in lexicographic
    # order: d units dropped into the n * n cells, each multiset of cells once
    want = []
    for cells in itertools.product(range(n * n), repeat=d):
        if list(cells) == sorted(cells):
            want.append(tuple(tuple(cells.count(i * n + j) for j in range(n)) for i in range(n)))
    assert theta_matrices(n, d) == sorted(want)


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_triangular_products(n, d):
    seen = []
    for A in theta_matrices(n, d):
        x, factors = sc.triangular_product(A)
        assert sc.clean(x)[A] == ONE
        for M in x:
            assert M == A or sc.prec(M, A)
        seen.append(x)
    # unitriangular with respect to any linear extension => independent,
    # and the count is the stars-and-bars dimension
    assert len(seen) == len(theta_matrices(n, d)) == math.comb(n * n + d - 1, d)


def test_triangular_diagonal_and_single():
    x, factors = sc.triangular_product(diag((1, 1)))
    assert factors == [] and x == {diag((1, 1)): ONE}
    x, factors = sc.triangular_product(mat_unit(2, 1, 2))
    assert len(factors) == 1 and x == {mat_unit(2, 1, 2): ONE}


def test_product_via_operators():
    n, d = 2, 2
    E1 = sc.gen_elt(("E", 1), n, d)
    F1 = sc.gen_elt(("F", 1), n, d)
    assert sc.product_via_operators(E1, F1, n, d) == sc.mul_gen(("E", 1), F1, n, d)
    one = sc.unit(n, d)
    assert sc.product_via_operators(one, E1, n, d) == E1
    with pytest.raises(ValueError):
        sc.product_via_operators(one, one, 2, 3)
    rng = random.Random(42)
    thetas = theta_matrices(n, d)

    def rand_elt():
        return {rng.choice(thetas): mono(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(1, 2))
                for _ in range(2)}

    for _ in range(50):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        a = sc.product_via_operators(sc.product_via_operators(x, y, n, d), z, n, d)
        b = sc.product_via_operators(x, sc.product_via_operators(y, z, n, d), n, d)
        assert sc.clean(a) == sc.clean(b)


def test_generator_ops_match_tensor_action():
    # the braced-element operators reproduce the tensor-space action exactly
    for n, d in [(2, 1), (2, 2), (3, 2), (3, 3)]:
        for sym in tensor.gens(n):
            assert tensor.op_eq(sc.elt_op(sc.gen_elt(sym, n, d), n, d), tensor.op_sym(sym, n, d))


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_mul_gen_matches_chev_mul_of_gen_elt(n, d):
    # the row-profile path of mul_gen against the Chevalley product with the
    # whole generator element, on seeded random elements
    rng = random.Random(100 * n + d)
    thetas = theta_matrices(n, d)
    for _ in range(10):
        x = {A: mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((-2, 1, 3)))
             for A in rng.sample(thetas, min(4, len(thetas)))}
        for sym in tensor.gens(n):
            assert sc.mul_gen(sym, x, n, d) == sc.chev_mul(sc.gen_elt(sym, n, d), x), (sym, x)


def test_unknown_generator_symbol_raises():
    x = sc.unit(2, 2)
    for call in (lambda: sc.mul_gen(("X", 1), x, 2, 2), lambda: sc.gen_elt(("X", 1), 2, 2),
                 lambda: sc.expand_word([("X", 1)], 2, 2), lambda: tensor.op_sym(("X", 1), 2, 2)):
        with pytest.raises(ValueError, match="unknown generator symbol"):
            call()


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1)])
def test_oracle_equivalence_small(n, d):
    results = sc.oracle_compare(n, d, primes=(3, 5))
    assert results and all(ok for _, _, ok in results)


def test_oracle_equivalence_d4():
    # the first count of Chevalley factors with r = 4 (E_12^(4), F_21^(4))
    results = sc.oracle_compare(2, 4, primes=(3,))
    assert len(results) == 140 and all(ok for _, _, ok in results)
    assert any(sc.chev_shape(B)[2] == 4 for B, _, _ in results)


def test_json_roundtrip():
    x = sc.gen_elt(("E", 1), 2, 2)
    doc = sc.to_json(x, 2, 2)
    y, n, d = sc.from_json(doc)
    assert y == x and (n, d, doc["basis"]) == (2, 2, "braced")


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2)])
def test_action_matches_counting_oracle(n, d):
    # the module action of a braced basis element, rewritten on e-bases both
    # sides, must reproduce the X-middle counting convolution on X*Y pairs
    from vtschur import flags
    from vtschur.matrices import dminusr

    seq_of = {}
    for p in (3, 5):
        table = flags.conv_table(p, d, n, kinds=("X", "X", "Y"))
        X = flags.enum_flags_X(p, d, n)
        Y = flags.enum_flags_Y(p, d)
        pi_mats = {flags.orbit_matrix(V, F, p) for V in X for F in Y}
        seq_of = {}
        for B in pi_mats:
            seq = tuple(next(i + 1 for i in range(n) if B[i][c]) for c in range(d))
            seq_of[seq] = B
        for A in theta_matrices(n, d):
            op = sc.braced_op(A, n, d)
            for r, Bcol in seq_of.items():
                counts = table.get((A, Bcol), {})
                col = op.get(r, {})
                shift = dminusr(A) + dminusr(Bcol)
                seen = set()
                for rp, c in col.items():
                    Bout = seq_of[rp]
                    coef = c * mono(shift - dminusr(Bout), dminusr(Bout) - shift)
                    vals = laurent.eval_q(coef, p)
                    assert set(vals) <= {0}, (A, r, rp)
                    assert vals.get(0, 0) == counts.get(Bout, 0), (A, r, rp)
                    seen.add(Bout)
                assert not set(counts) - seen, (A, r)


def test_product_via_operators_n3():
    n, d = 3, 2
    rng = random.Random(7)
    thetas = theta_matrices(n, d)

    def rand_elt():
        return {rng.choice(thetas): mono(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(1, 2))
                for _ in range(2)}

    for _ in range(5):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        a = sc.product_via_operators(sc.product_via_operators(x, y, n, d), z, n, d)
        b = sc.product_via_operators(x, sc.product_via_operators(y, z, n, d), n, d)
        assert sc.clean(a) == sc.clean(b)
    for sym in [("E", 1), ("E", 2), ("F", 1), ("F", 2)]:
        lhs = sc.product_via_operators(sc.gen_elt(sym, n, d), sc.gen_elt(("F", 1), n, d), n, d)
        rhs = sc.mul_gen(sym, sc.gen_elt(("F", 1), n, d), n, d)
        assert sc.clean(lhs) == sc.clean(rhs), sym


def _position(s_row, s_col, n):
    B = [[0] * n for _ in range(n)]
    for a, b in zip(s_row, s_col):
        B[a - 1][b - 1] += 1
    return tuple(map(tuple, B))


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_braced_op_unitriangular(n, d):
    # every entry of braced_op(A) sits at a position matrix B <= A, and
    # every position-A entry is a unit monomial
    for A in theta_matrices(n, d):
        at_A = 0
        for s_col, col in sc.braced_op(A, n, d).items():
            for s_row, c in col.items():
                B = _position(s_row, s_col, n)
                assert sc.preceq(B, A), (A, B)
                if B == A:
                    ((_ab, coeff),) = c.terms()
                    assert coeff in (1, -1), (A, c)
                    at_A += 1
        assert at_A, A


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_height_strictly_monotone(n, d):
    thetas = theta_matrices(n, d)
    for A in thetas:
        for B in thetas:
            if sc.prec(B, A):
                assert height(B) < height(A), (B, A)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 3), (3, 4), (5, 2)])
def test_height_is_the_closed_form(n, d):
    for A in theta_matrices(n, d):
        assert height(A) == height_closed_form(A), A


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_op_to_elt_inverts_elt_op(n, d):
    rng = random.Random(10 * n + d)
    thetas = theta_matrices(n, d)
    for _ in range(10):
        x = {A: mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((-2, -1, 1, 3)))
             for A in rng.sample(thetas, min(4, len(thetas)))}
        x[rng.choice(thetas)] = laurent.ZERO
        assert op_to_elt(sc.elt_op(x, n, d), n, d) == sc.clean(x)


@pytest.mark.parametrize("P", [{(1, 2): {(2, 1): ONE}}, {(1, 2): {(1, 2): ONE}}])
def test_op_to_elt_rejects_operator_outside_image(P):
    # single matrix units lie outside the image of the algebra
    with pytest.raises(laurent.InexactDivision):
        op_to_elt(P, 2, 2)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_peel_order_contract(n, d):
    # the walk of the reference op_to_elt: every matrix once, by decreasing
    # height, each with one pair of sequences of its position
    order = peel_order(n, d)
    assert sorted(A for A, _, _ in order) == sorted(theta_matrices(n, d))
    heights = [height(A) for A, _, _ in order]
    assert heights == sorted(heights, reverse=True)
    for A, s_col, s_row in order:
        assert _position(s_row, s_col, n) == A


def test_column_plan_built_once_per_size(monkeypatch):
    sc._column_plan.cache_clear()
    calls = collections.Counter()
    enumerate_thetas = sc.theta_matrices

    def counted(n, d):
        calls[n, d] += 1
        return enumerate_thetas(n, d)

    monkeypatch.setattr(sc, "theta_matrices", counted)
    for n, d in [(3, 2), (3, 2), (3, 3)]:
        x, y = sc.gen_elt(("E", 1), n, d), sc.gen_elt(("F", 2), n, d)
        assert sc.product_via_operators(x, y, n, d)
    assert calls == {(3, 2): 1, (3, 3): 1}


def test_unit_elements_built_once(monkeypatch):
    # expand_word starts every word from unit(n, d); its diagonal matrices
    # are built once per (n, d), so only their first build and cartan_elt
    # make diagonals (5,422 diag calls when each unit was rebuilt)
    sc._diagonals.cache_clear()
    calls = collections.Counter()
    make_diag = sc.diag

    def counted(vec):
        calls["diag"] += 1
        return make_diag(vec)

    monkeypatch.setattr(sc, "diag", counted)
    checks = sc.verify_relations(4, 3)
    assert all(ok for name, ok in checks if not name.startswith("expect-fail"))
    assert calls["diag"] <= 62
    assert sc.unit(4, 3) is not sc.unit(4, 3)  # a fresh dict each call


def _sorted_seq(mu):
    return tuple(b + 1 for b, m in enumerate(mu) for _ in range(m))


def test_product_via_operators_rejects_a_planted_residue(monkeypatch):
    # {diag(2, 0)}, a term of E F that neither factor holds, gains the entry
    # (2, 1) in its closed-form column at (1, 1), the column the read-off
    # subtracts.  The canonical sequence of that entry's position matrix is
    # (1, 2), so the product never reads at (2, 1): subtracting
    # c {diag(2, 0)} leaves a residue that no braced element explains
    n = d = 2
    x, y = sc.gen_elt(("E", 1), n, d), sc.gen_elt(("F", 1), n, d)
    C = diag((2, 0))
    assert C in sc.product_via_operators(x, y, n, d) and C not in x and C not in y
    real = sc._sorted_column

    def planted(A, n, d):
        col = real(A, n, d)
        return {**col, (2, 1): ONE} if A == C else col

    monkeypatch.setattr(sc, "_sorted_column", planted)
    with pytest.raises(laurent.InexactDivision):
        sc.product_via_operators(x, y, n, d)


def _seeded_products(n, d, seed, count):
    """count seeded (x, y) at (n, d), three terms a side.  Each coefficient
    is a sum of two monomials with int or Fraction coefficients of either
    sign; x's terms have column sums among the row sums of y's, so the
    products are seldom zero by content alone."""
    rng = random.Random(seed)
    thetas = theta_matrices(n, d)
    by_co = collections.defaultdict(list)
    for A in thetas:
        by_co[co(A)].append(A)

    def poly():
        return sum((mono(rng.randint(-2, 2), rng.randint(-1, 1),
                         rng.choice((-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)))) for _ in range(2)),
                   laurent.ZERO)

    cases = []
    for _ in range(count):
        y = laurent.clean({A: poly() for A in rng.sample(thetas, 3)})
        x = laurent.clean({rng.choice(by_co[ro(rng.choice(list(y)))]): poly() for _ in range(3)})
        cases.append((x, y))
    return cases


def _cancelling_products(n, d):
    """(x, y) whose product is zero only because the terms of E_1 y (and
    F_1 y) cancel: y = 2/3 ({A} - vt {B}), A = E_12 + E_21 + (d - 2) E_nn
    and B its rows 1 and 2 swapped, spans a vector that E_1 and F_1 kill."""
    rest = mat_unit(n, n, n, d - 2)
    A = mat_add(mat_add(mat_unit(n, 1, 2), mat_unit(n, 2, 1)), rest)
    B = mat_add(mat_add(mat_unit(n, 1, 1), mat_unit(n, 2, 2)), rest)
    y = {A: Fraction(2, 3) * ONE, B: mono(1, 1, Fraction(-2, 3))}
    return [(sc.gen_elt((kind, 1), n, d), y) for kind in "EF"]


# sha256 of the canonical JSON of schur.to_json for the five products of
# _seeded_products(n, d, 100 n + d, 5), recorded before products were read
# off the closed-form columns by comparison
PRODUCT_JSON_SHA256 = {
    (2, 2): "89d2307f01aae701f172177bc536349058e6e633f5b126b849a5596bdafeafc1",
    (3, 2): "bb89733da62987a2839e52cdb4b33c2cfd748a7d5b8af252ddcbb6e7e90ef42e",
    (3, 3): "083c950df123eda870b5e5fa65456435156163c6d9dea86441a683ae97aa9430",
    (4, 3): "f93e9faa780f818cabf40d0e992dd8f9833d6c96e624326bd85e7a2bbb03b77f",
}


def test_product_json_bytes_pinned():
    for n, d in SIZES:
        docs = [sc.to_json(sc.product_via_operators(x, y, n, d), n, d)
                for x, y in _seeded_products(n, d, 100 * n + d, 5)]
        text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
        # Fraction coefficients reach the outputs: a quadruple over a denominator
        assert any(q[3] != 1 for doc in docs for term in doc["terms"] for q in term["poly"]), (n, d)
        assert hashlib.sha256(text.encode()).hexdigest() == PRODUCT_JSON_SHA256[(n, d)], (n, d)


def test_product_via_operators_rejects_a_wrong_entry_in_a_read_support(monkeypatch):
    # {C}, a term of E F that neither factor holds, is read at its canonical
    # sequence s; its planted column carries v times the true monomial at
    # another sequence r of its support.  The count of entries is unchanged,
    # so only the entrywise match sees the residue at r
    n = d = 3
    x, y = sc.gen_elt(("E", 1), n, d), sc.gen_elt(("F", 1), n, d)
    real = sc._sorted_column
    C = next(C for C in sc.product_via_operators(x, y, n, d)
             if C not in x and C not in y and len(real(C, n, d)) > 1)
    s = dict(sc._column_plan(n, d)[co(C)][2])[C]
    r = next(r for r in real(C, n, d) if r != s)

    def planted(A, n, d):
        col = real(A, n, d)
        return {**col, r: col[r] * laurent.V} if A == C else col

    monkeypatch.setattr(sc, "_sorted_column", planted)
    with pytest.raises(laurent.InexactDivision, match="residue in the column of"):
        sc.product_via_operators(x, y, n, d)


def test_product_via_operators_rejects_an_entry_off_every_read_support(monkeypatch):
    # {B}{diag(mu)} = {B}, mu = co(B).  The operator of {B} gains an entry at
    # the column s_mu, at a sequence r of the support of a {C} that the
    # product does not hold, and not at C's canonical sequence: no read
    # looks at r, so only the count of entries against the supports read
    # sees the residue
    n = d = 3
    B = mat_add(mat_unit(n, 1, 2), diag((0, 1, 1)))
    mu = co(B)
    x, y = {B: ONE}, {diag(mu): ONE}
    assert sc.product_via_operators(x, y, n, d) == x
    s_mu, _, reads = sc._column_plan(n, d)[mu]
    C, s = next((C, s) for C, s in reads if C != B and len(sc._sorted_column(C, n, d)) > 1)
    r = next(r for r in sc._sorted_column(C, n, d) if r != s)
    real = sc.braced_op

    def planted(A, n, d):
        P = real(A, n, d)
        return {**P, s_mu: {**P[s_mu], r: ONE}} if A == B else P

    monkeypatch.setattr(sc, "braced_op", planted)
    with pytest.raises(laurent.InexactDivision, match="residue in the column of"):
        sc.product_via_operators(x, y, n, d)


# -- the column build against the whole-operator construction ------------------------

def _reference_elt_op(x, n, d):
    out = {}
    for A, c in x.items():
        tensor.op_add_into(out, reference_braced_op(A, n, d), c)
    return out


SIZES = [(2, 2), (3, 2), (3, 3), (4, 3)]


@pytest.mark.parametrize("n,d", SIZES)
def test_braced_op_matches_whole_operator_reference(n, d):
    for A in theta_matrices(n, d):
        assert sc.braced_op(A, n, d) == reference_braced_op(A, n, d), A


@pytest.mark.parametrize("n,d", SIZES)
def test_product_via_operators_matches_whole_operator_reference(n, d):
    rng = random.Random(1000 * n + d)
    thetas = theta_matrices(n, d)

    def poly():
        return mono(rng.randint(-2, 2), rng.randint(-1, 1), rng.choice((-2, -1, 1, 3)))

    cases = [({A: poly() for A in rng.sample(thetas, 3)}, {A: poly() for A in rng.sample(thetas, 3)})
             for _ in range(4)]
    # zero products: a left factor whose column sums meet no row sums of y
    B = next(iter(sc.gen_elt(("E", 1), n, d)))
    mu = next(mu for mu in compositions(n, d) if mu != co(B))
    cases += [({B: ONE}, {diag(mu): ONE}), ({B: ONE}, {})]
    # (E + F)(F - E): the terms of E F and F E cancel inside one product
    E, F = sc.gen_elt(("E", 1), n, d), sc.gen_elt(("F", 1), n, d)
    cases.append((sc.elt_add(E, F), sc.elt_add(F, sc.elt_scale(E, -ONE))))
    # coefficients that sum monomials over negative and Fraction
    # coefficients, and products that cancel to zero
    cases += _seeded_products(n, d, 7 * n + d, 4) + _cancelling_products(n, d)
    zeros = 0
    for x, y in cases:
        composed = tensor.op_compose(_reference_elt_op(x, n, d), _reference_elt_op(y, n, d))
        want = op_to_elt(composed, n, d)
        assert sc.product_via_operators(x, y, n, d) == want, (x, y)
        zeros += not want
    assert zeros >= 4


@pytest.mark.parametrize("n,d", SIZES)
def test_sorted_column_matches_whole_operator_reference(n, d):
    # the memoized closed form that products read is the whole-operator
    # column at s_mu; a diagonal A, whose operator is a content projector,
    # has the column {s_mu: 1}
    sc._sorted_column.cache_clear()
    for A in theta_matrices(n, d):
        s_mu = _sorted_seq(co(A))
        col = sc._sorted_column(A, n, d)
        assert col == reference_braced_op(A, n, d)[s_mu], A
        if A == diag(co(A)):
            assert col == {s_mu: ONE}, A
    assert sc._sorted_column.cache_info().misses == len(theta_matrices(n, d))


@pytest.mark.parametrize("n,d", [(3, 3), (4, 3)])
def test_products_build_operators_only_for_left_factors(monkeypatch, n, d):
    # from cold memos, on the cases of the whole-operator product test:
    # braced_op is built only for terms of left factors, and each
    # closed-form column is computed once, only for terms of either factor
    # and for outputs
    for memo in (sc.braced_op, sc._sorted_column, sc._arrangements):
        memo.cache_clear()
    built, computed, left, seen = [], [], set(), set()
    real_op, real_column, real_product = sc.braced_op, sc._sorted_column, sc.product_via_operators

    def op(A, n, d):
        built.append(A)
        return real_op(A, n, d)

    def column(A, n, d):
        misses = real_column.cache_info().misses
        col = real_column(A, n, d)
        if real_column.cache_info().misses > misses:
            computed.append(A)
        return col

    def product(x, y, n, d):
        left.update(x)
        out = real_product(x, y, n, d)
        seen.update(x, y, out)
        return out

    monkeypatch.setattr(sc, "braced_op", op)
    monkeypatch.setattr(sc, "_sorted_column", column)
    monkeypatch.setattr(sc, "product_via_operators", product)
    test_product_via_operators_matches_whole_operator_reference(n, d)
    assert built and set(built) <= left
    assert computed and len(computed) == len(set(computed)) and set(computed) <= seen


# -- the support fact and the Hecke equivariance the column build rests on ----------

def test_column_at_the_sorted_sequence_is_position_a():
    # on the whole-operator construction: {A} s_mu, mu = co(A), holds
    # exactly the sequences of position matrix A, one arrangement per column
    # of A, with (v^{-1} t)^{asc(s)} at each, asc(s) counting the pairs
    # p < q in one block of s_mu with s_p < s_q
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        for A in theta_matrices(n, d):
            mu = co(A)
            s_mu = _sorted_seq(mu)
            col = reference_braced_op(A, n, d)[s_mu]
            arrangements = 1
            for b in range(n):
                column = [A[i][b] for i in range(n)]
                arrangements *= math.factorial(sum(column)) // math.prod(map(math.factorial, column))
            assert len(col) == arrangements, A
            blocks = [range(sum(mu[:b]), sum(mu[:b + 1])) for b in range(n)]
            for s, c in col.items():
                assert _position(s, s_mu, n) == A, (A, s)
                asc = sum(s[p] < s[q] for block in blocks for p in block for q in block if p < q)
                assert c == mono(-asc, asc), (A, s, c)


@pytest.mark.parametrize("n,d", [(4, 4), (5, 3)])
def test_chevalley_columns_match_the_power_construction(n, d):
    # beyond the reach of the whole-operator reference: for every
    # non-diagonal Chevalley-shaped A, the closed-form column at s_mu is
    # E_h^r (F_h^r) s_mu divided by the coefficient of {A} in that power
    checked = 0
    for A in theta_matrices(n, d):
        shape = sc.chev_shape(A)
        if shape is None or shape[0] == "diag":
            continue
        assert sc.braced_op(A, n, d)[_sorted_seq(co(A))] == chevalley_column(A, n, d), A
        checked += 1
    assert checked


def test_braced_op_commutes_with_the_hecke_action():
    n = d = 3
    for A in theta_matrices(n, d):
        P = sc.braced_op(A, n, d)
        for j in range(1, d):
            T = tensor.op_T(j, n, d)
            assert tensor.op_compose(P, T) == tensor.op_compose(T, P), (A, j)


def test_products_and_builds_compose_no_operators(monkeypatch):
    # the column build and the product read one column per content; no
    # whole operators are composed, and the coefficients are read off by
    # shifts, with no exact division
    calls = collections.Counter()
    for mod, name in [(tensor, "op_compose"), (laurent, "exact_div")]:
        def counted(*args, _name=name, _real=getattr(mod, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, counted)
    sc.braced_op.cache_clear()
    n = d = 3
    thetas = theta_matrices(n, d)
    for A in thetas:
        sc.braced_op(A, n, d)
    rng = random.Random(5)
    for _ in range(5):
        x, y = ({A: mono(rng.randint(-1, 1), rng.randint(-1, 1)) for A in rng.sample(thetas, 3)}
                for _ in range(2))
        sc.product_via_operators(x, y, n, d)
    assert calls["op_compose"] == 0 and calls["exact_div"] == 0


@pytest.mark.parametrize("n,d", [(3, 3), (4, 3)])
def test_builds_take_no_powers_factors_or_divisions(monkeypatch, n, d):
    # each column at s_mu is written down in closed form: a cold build of
    # every operator takes no Chevalley power, no triangular factorization,
    # no generator operator and no exact division
    calls = collections.Counter()
    for mod, name in [(sc, "triangular_factors"), (sc, "expand_word"), (tensor, "op_sym"),
                      (laurent, "exact_div")]:
        def counted(*args, _name=name, _real=getattr(mod, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, counted)
    sc.braced_op.cache_clear()
    for A in theta_matrices(n, d):
        sc.braced_op(A, n, d)
    assert sc.braced_op.cache_info().misses == len(theta_matrices(n, d))
    assert not calls, calls


MALFORMED_3_3 = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),  # 4 x 3
    ((1, 0), (0, 2)),                              # 2 x 2
    ((1, 0, 0), (0, 1), (0, 0, 1)),                # a short row
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),             # sums to 4
    ((2, 1, 0), (0, -1, 0), (0, 0, 1)),            # a negative entry
    ((0, 1, 0), (0, 1, 0), (0, 0, 0)),             # sums to 2
]


@pytest.mark.parametrize("A", MALFORMED_3_3)
def test_braced_op_rejects_a_matrix_of_the_wrong_size(A):
    with pytest.raises(ValueError, match="not 3 x 3 natural summing to 3"):
        sc.braced_op(A, 3, 3)


@pytest.mark.parametrize("A", MALFORMED_3_3)
def test_product_via_operators_rejects_a_malformed_right_term(A):
    # a right term enters by its closed-form column alone, which checks it
    x = sc.gen_elt(("E", 1), 3, 3)
    with pytest.raises(ValueError, match="not 3 x 3 natural summing to 3"):
        sc.product_via_operators(x, {A: ONE}, 3, 3)
