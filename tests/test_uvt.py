import pytest

from vtschur import cli, laurent, tensor, uvt
from vtschur.laurent import ONE, mono

from references import hopf_checks_whole_sides, printed_word_antipode


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


def _extra_e_leg(legs):
    """coproduct_legs with an extra E x 1 leg on every E generator."""
    return lambda sym: legs(sym) + ([([sym], [])] if sym[0] == "E" else [])


def _dropped_e_leg(legs):
    """coproduct_legs without the leg E x A B of every E generator."""
    return lambda sym: legs(sym)[1:] if sym[0] == "E" else legs(sym)


def _doubled_e_leg(legs):
    """coproduct_legs with the leg 1 x E of every E generator made 1 x E E."""
    return lambda sym: [(l, r * 2 if not l else r) for l, r in legs(sym)] if sym[0] == "E" else legs(sym)


@pytest.mark.parametrize("plant", [None, _extra_e_leg, _dropped_e_leg, _doubled_e_leg])
@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3)])
def test_hopf_checks_match_whole_side_reference(monkeypatch, plant, n, d):
    # the formal difference of the two coassociativity expansions decides
    # every check as the side-against-side comparison does, planted or not
    if plant is not None:
        monkeypatch.setattr(tensor, "coproduct_legs", plant(tensor.coproduct_legs))
    assert uvt.hopf_checks(n, d) == hopf_checks_whole_sides(n, d)


def test_hopf_builds_only_the_differing_leg_operators(monkeypatch):
    # the two coassociativity expansions of the true coproduct have the same
    # leg triples, so no leg operator is built at (4, 3); an extra E x 1 leg
    # at (2, 2) makes two triples differ, built once on each of the 6 splits
    calls = []
    build = tensor.tensor_word_op

    def counted(words, n, degrees):
        calls.append((words, degrees))
        return build(words, n, degrees)

    monkeypatch.setattr(tensor, "tensor_word_op", counted)
    assert all(ok for _, ok in uvt.hopf_checks(4, 3))
    assert calls == []
    monkeypatch.setattr(tensor, "coproduct_legs", _extra_e_leg(tensor.coproduct_legs))
    uvt.hopf_checks(2, 2)
    assert len(calls) == 12
    assert len(set(calls)) == 12


def test_hopf_doubled_e_leg_breaks_the_counit(monkeypatch):
    # the leg 1 x E of E_1 made 1 x E E at n = 2, d = 2: only the split that
    # puts both tensor positions on the third leg sees the coassociativity
    # gap, and counit-left reads the doubled leg itself
    monkeypatch.setattr(tensor, "coproduct_legs", _doubled_e_leg(tensor.coproduct_legs))
    fails = [name for name, ok in uvt.hopf_checks(2, 2) if not ok]
    assert fails == ["coassoc ('E', 1) 0+0+2", "counit-left ('E', 1)",
                     "antipode-left ('E', 1)", "antipode-right ('E', 1)"]


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


def test_t1_specialization_sees_one_scaled_coefficient(monkeypatch):
    # the starred R2 AE 2,1 with its right side written 2 v^{-1} E_1 instead
    # of v^{-1} E_1: that instance, and no other, leaves the t = 1 scheme
    real = uvt.relation_instances

    def planted(rel, n, star=False, fold=True):
        out = real(rel, n, star=star, fold=fold)
        return [(name, lhs, [(c * 2, w) for c, w in rhs] if name == "R*2 AE 2,1" else rhs)
                for name, lhs, rhs in out]

    monkeypatch.setattr(uvt, "relation_instances", planted)
    fails = [name for name, ok in uvt.t1_specialization_check(3) if not ok]
    assert fails == ["R2 AE 2,1"]


def test_exponent_identity_sees_one_shifted_degree(monkeypatch):
    # |A_2| shifted by (w, w), w = e_1 - e_2 + e_3, and |A_2^{-1}| left as it
    # is.  In the starred catalog every E_j and F_j that meets A_2 stands
    # right of it, where the shift adds [w, e_j] = 0 (j < 3) to the twist,
    # and against a grouplike degree (u, u) it adds [w, u] - [w, u] = 0.  So
    # no twist moves and every operator check of the star suite still
    # passes, while [e_1, w] = 1 breaks the exponent identity at (2, 1)
    real = uvt.sym_degree
    shift = uvt._wvec(3, 1)

    def planted(sym, n):
        d1, d2 = real(sym, n)
        if sym == ("A", 2, 1):
            return tuple(map(sum, zip(d1, shift))), tuple(map(sum, zip(d2, shift)))
        return d1, d2

    monkeypatch.setattr(uvt, "sym_degree", planted)
    assert uvt.exponent_identity_holds(3) is False
    cfg = {"n": 3, "d": 2, "m": 1, "primes": (3, 5, 7), "window": 4, "spec": (2, 3)}
    rep = cli.run_suite("star", cfg)
    assert [name for name, ok, _ in rep.checks if not ok] == ["twist exponent identity n=3"]


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
