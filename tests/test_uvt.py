import pytest

from vtschur import laurent, tensor, uvt
from vtschur.laurent import ONE, mono

from references import printed_word_antipode


def test_cartan_forms():
    n = 4
    for i in range(1, n + 1):
        assert uvt.symmetric_dot(n, i, i) == 2
        assert uvt.bracket_form(n, i, i) == 1
    assert uvt.pairing(n, 2, 1) == -1
    assert uvt.pairing(n, 1, 2) == 0
    assert uvt.bracket_form(n, 2, 1) == 1
    assert uvt.bracket_form(n, 1, 2) == 0
    # boundary convention: <j, n> = 0 and <n, j> = -1 only at j = n-1
    assert all(uvt.pairing(n, j, n) == 0 for j in range(1, n))
    assert uvt.pairing(n, n, n - 1) == -1


def test_degree_table_frozen():
    # computed once from the alternating-tail rule, then frozen here
    assert uvt.sym_degree(("A", 1, 1), 3) == ((1, -1, 1), (1, -1, 1))
    assert uvt.sym_degree(("A", 2, 1), 3) == ((0, 1, -1), (0, 1, -1))
    assert uvt.sym_degree(("B", 3, 1), 4) == ((0, 0, 1, -1), (0, 0, 1, -1))
    assert uvt.sym_degree(("A", 3, 1), 3) == ((0, 0, 1), (0, 0, 1))
    assert uvt.sym_degree(("A", 2, -1), 3) == ((0, -1, 1), (0, -1, 1))
    assert uvt.sym_degree(("E", 2), 4) == ((0, 1, 0, 0), (0, 0, 0, 0))
    assert uvt.sym_degree(("F", 1), 2) == ((0, 0), (1, 0))
    for n in range(2, 6):
        for j in range(1, n + 1):
            assert uvt.sym_degree(("A", j, 1), n) == uvt.sym_degree(("B", j, 1), n)


def test_bform_prime_values():
    n = 3
    dE = uvt.sym_degree(("E", 1), n)
    dF = uvt.sym_degree(("F", 1), n)
    # with [i,i] = 1 the printed form gives -1 on (E_i, E_i) and 0 on (E, F)
    assert uvt.bform_prime(n, dE, dE) == -1
    assert uvt.bform_prime(n, dE, dF) == 0
    assert uvt.bform_prime(n, (tuple([0] * n), tuple([0] * n)), dE) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exponent_identity(n):
    assert uvt.exponent_identity_holds(n)


def test_star_expand_examples():
    n = 3
    # E_i * F_i carries no twist under this grading
    c, syms = uvt.star_expand((ONE, (("E", 1),)), (ONE, (("F", 1),)), n)
    assert c == ONE and syms == (("E", 1), ("F", 1))
    # the unit never twists
    c, syms = uvt.star_expand((ONE, ()), (ONE, (("E", 2),)), n)
    assert c == ONE
    # iterated E-powers pick up the [i,i] twist
    c, _ = uvt.star_expand((ONE, (("E", 1),)), (ONE, (("E", 1),)), n)
    assert c == laurent.T


def test_star_associativity():
    assert uvt.star_associativity_sample(3, seed=5)


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_relations_plain(n, d):
    bad = [name for name, ok in uvt.verify_all(n, d, star=False) if not ok]
    assert not bad


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_relations_starred(n, d):
    bad = [name for name, ok in uvt.verify_all(n, d, star=True) if not ok]
    assert not bad


def test_r_star_2_specific():
    # A_1 * E_1 * A_1^{-1} = v E_1 as operators
    out = dict(uvt.verify_relation("R2", 2, 1, star=True))
    assert out["R*2 AE 1,1"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_t1_specialization(n):
    assert all(ok for _, ok in uvt.t1_specialization_check(n))


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_hopf_axioms(n, d):
    bad = [name for name, ok in uvt.hopf_checks(n, d) if not ok]
    assert not bad


def test_hopf_printed_antipode_fails():
    # the printed grouplike factors break the antipode axiom m(S x id) Delta(g)
    # = eps(g) 1 on E and F, and only there
    n, d = 2, 1
    fails = set()
    for g in tensor.gens(n):
        combo = [(c, w + tuple(r)) for l, r in tensor.coproduct_legs(g) for c, w in printed_word_antipode(l)]
        if not tensor.op_eq(tensor.op_combo(combo, n, d), tensor.op_combo([(uvt.counit(g), ())], n, d)):
            fails.add(g)
    assert fails == {("E", 1), ("F", 1)}
    assert all(ok for _, ok in uvt.hopf_checks(n, d))


def test_hopf_leg_operators_built_once(monkeypatch):
    # the two coassociativity expansions share leg triples: 340 distinct
    # triples over the splits of hopf_checks(4, 3), out of 680 expanded
    calls = []
    build = tensor.tensor_word_op

    def counted(words, n, degrees):
        calls.append((words, degrees))
        return build(words, n, degrees)

    monkeypatch.setattr(tensor, "tensor_word_op", counted)
    assert all(ok for _, ok in uvt.hopf_checks(4, 3))
    assert len(calls) == 340
    assert len(set(calls)) == 340


def test_hopf_planted_leg_breaks_coassociativity(monkeypatch):
    # an extra E x 1 leg for E_1 at n = 2, d = 2 breaks coassociativity on
    # three splits, and the counit and antipode sides of E_1
    legs = tensor.coproduct_legs

    def planted(sym):
        extra = [([sym], [])] if sym[0] == "E" else []
        return legs(sym) + extra

    monkeypatch.setattr(tensor, "coproduct_legs", planted)
    fails = [name for name, ok in uvt.hopf_checks(2, 2) if not ok]
    assert fails == ["coassoc ('E', 1) 1+0+1", "coassoc ('E', 1) 1+1+0", "coassoc ('E', 1) 2+0+0",
                     "counit-right ('E', 1)", "antipode-left ('E', 1)", "antipode-right ('E', 1)"]


def test_unbalanced_factorial_breaks_serre():
    # regression guard: swapping the two-parameter binomial for the
    # unbalanced one must break the Serre operator identity
    from vtschur import tensor

    n, d = 3, 2
    i, j = 1, 2
    texps = {0: 0, 1: 0, 2: 2}
    combo = []
    for p in range(3):
        pp = 2 - p
        coeff = laurent.qbinom(2, p) * mono(0, texps[p]) * (1 if p % 2 == 0 else -1)
        combo.append((coeff, tuple([("E", i)] * pp + [("E", j)] + [("E", i)] * p)))
    assert not tensor.op_eq(tensor.op_combo(combo, n, d), {})


def test_planted_twist_breaks_star_associativity(monkeypatch):
    # a twist that also reads the length of the left word is not associative
    # ((x y) z and x (y z) differ by t^|x|), and the sample must say so
    real = uvt.star_expand

    def planted(w1, w2, n):
        c, word = real(w1, w2, n)
        return c * mono(0, len(w1[1])), word

    monkeypatch.setattr(uvt, "star_expand", planted)
    assert uvt.star_associativity_sample(3, seed=5) is False
    assert uvt.exponent_identity_holds(3)
