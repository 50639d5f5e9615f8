import itertools
import random

import pytest

from vtschur import laurent, schur as sc, tensor
from vtschur.laurent import ONE, mono
from vtschur.matrices import (
    add as mat_add, co, diag, dminusr, mat, ro, theta_matrices, unit as mat_unit,
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
            got = sc.clean(sc.chev_mul(x, y))
            assert got == sc.clean(sc.product_via_operators(x, y, n, d)), (B, x, y)
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


def test_lmul_braced_errors():
    with pytest.raises(ValueError, match="not Chevalley-shaped"):
        sc.lmul_braced(mat([[0, 1, 1], [0, 0, 0], [0, 0, 0]]), {})
    with pytest.raises(ValueError, match="row/column sums mismatch"):
        sc.lmul_braced(mat_unit(2, 1, 2), {diag((1, 0)): ONE})
    # a diagonal left factor filters instead
    assert sc.lmul_braced(diag((1, 0)), {diag((0, 1)): ONE}) == {}


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


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_triangular_products(n, d):
    import math

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
    assert sc.clean(sc.product_via_operators(E1, F1, n, d)) == sc.clean(sc.mul_gen(("E", 1), F1, n, d))
    one = sc.unit(n, d)
    assert sc.clean(sc.product_via_operators(one, E1, n, d)) == sc.clean(E1)
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
    with pytest.warns(UserWarning, match="desk-scale guards"):
        results = sc.oracle_compare(2, 4, primes=(3,), allow_large=True)
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
                assert sc._height(B) < sc._height(A), (B, A)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_op_to_elt_inverts_elt_op(n, d):
    rng = random.Random(10 * n + d)
    thetas = theta_matrices(n, d)
    for _ in range(10):
        x = {A: mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((-2, -1, 1, 3)))
             for A in rng.sample(thetas, min(4, len(thetas)))}
        x[rng.choice(thetas)] = laurent.ZERO
        assert sc.op_to_elt(sc.elt_op(x, n, d), n, d) == sc.clean(x)


@pytest.mark.parametrize("P", [{(1, 2): {(2, 1): ONE}}, {(1, 2): {(1, 2): ONE}}])
def test_op_to_elt_rejects_operator_outside_image(P):
    # single matrix units lie outside the image of the algebra
    with pytest.raises(laurent.InexactDivision):
        sc.op_to_elt(P, 2, 2)
