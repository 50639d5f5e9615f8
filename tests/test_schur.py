import random

import pytest

from vtschur import laurent, schur as sc, tensor
from vtschur.laurent import ONE, mono
from vtschur.matrices import (
    add as mat_add, co, diag, mat, ro, theta_matrices, unit as mat_unit,
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


def test_basis_roundtrip():
    rng = random.Random(3)
    thetas = theta_matrices(3, 2)
    for _ in range(200):
        x = {rng.choice(thetas): mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3))
             for _ in range(3)}
        x = sc.clean(x)
        assert sc.e_to_braced(sc.braced_to_e(x)) == x


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
