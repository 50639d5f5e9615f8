import random

import pytest

from vtschur import hecke as hk
from vtschur import laurent, tensor
from vtschur.laurent import elt_add, elt_scale, mono
from vtschur.matrices import dminusr


def test_inversions_and_words():
    assert hk.inversions((0, 1, 2)) == 0
    assert hk.inversions((2, 1, 0)) == 3
    rng = random.Random(2)
    for d in (2, 3, 4):
        for w in hk.all_perms(d):
            word = hk.reduced_word(w)
            assert len(word) == hk.inversions(w)
            x = hk.identity_perm(d)
            for i in word:
                x = hk.right_s(x, i)
            assert x == w


def test_inversions_are_dminusr_of_the_permutation_matrix():
    # the braced element {perm_matrix(w)} is T_w exactly when these agree
    for d in range(1, 6):
        for w in hk.all_perms(d):
            assert hk.inversions(w) == dminusr(hk.perm_matrix(w))


def test_index_out_of_range():
    with pytest.raises(ValueError):
        hk.mul_Ti(hk.unit(3), 3)
    with pytest.raises(ValueError):
        hk.mul_Ti(hk.unit(3), 0)


def test_zero_element_stays_zero():
    # the degree is read off a key, and the zero element has none
    assert hk.mul_Ti({}, 1) == {}
    assert hk.mul_Tw({}, (1, 2, 0)) == {}
    assert list(hk.mul_Ti(x, 2) for x in ({}, {})) == [{}, {}]
    assert list(hk.mul_Tw(x, (2, 1, 0)) for x in ({},)) == [{}]


def test_quadratic():
    x = hk.mul_Ti(hk.Ti(2, 1), 1)
    assert x == {
        (1, 0): hk.QUAD_LIN,
        (0, 1): hk.QUAD_CONST,
    }
    elt, rs = hk.quadratic_certificate(1, 2)
    assert elt == {}
    assert rs["T"] == [((0, 1), 1), ((1, 0), -1)]
    assert rs["1"] == [((1, 1), -1)]


def test_regular_representation_is_the_tensor_action():
    # T_w T_i on permutations is the right action of T_i on V^{(x)d} at the
    # sequences w + 1, whose entries are distinct
    rng = random.Random(7)
    for d in range(2, 5):
        shift = {w: tuple(x + 1 for x in w) for w in hk.all_perms(d)}
        for i in range(1, d):
            Ti = tensor.op_T(i, d, d)
            x = {w: mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((-2, 1, 3)))
                 for w in rng.sample(sorted(shift), min(5, len(shift)))}
            for elt in [hk.basis(w) for w in shift] + [x]:
                want = tensor.op_apply(Ti, {shift[w]: c for w, c in elt.items()})
                assert {shift[w]: c for w, c in hk.mul_Ti(elt, i).items()} == want, (d, i, elt)


def test_identity_and_braid():
    t1 = hk.Ti(3, 1)
    assert hk.hecke_mul(hk.unit(3), t1) == t1
    assert hk.hecke_mul(t1, hk.unit(3)) == t1
    lhs = hk.hecke_mul(hk.hecke_mul(hk.Ti(3, 1), hk.Ti(3, 2)), hk.Ti(3, 1))
    rhs = hk.hecke_mul(hk.hecke_mul(hk.Ti(3, 2), hk.Ti(3, 1)), hk.Ti(3, 2))
    assert lhs == rhs
    assert all(ok for _, ok in hk.verify_hecke(3))
    assert all(ok for _, ok in hk.verify_hecke(4))


def _plant_rising_step(monkeypatch, w, j):
    """Make the one rising step T_w T_j = T_{w s_j} pick up a factor v."""
    rule = hk.t_column

    def planted(i, r):
        col = rule(i, r)
        return {x: c * laurent.V for x, c in col.items()} if (i, r) == (j, w) else col

    monkeypatch.setattr(hk, "t_column", planted)


def _only_failure(checks, name):
    checks = dict(checks)
    assert len(checks) == 6  # d = 4: three quadratic, two braid, one commuting
    assert checks[name] is False
    assert all(ok for other, ok in checks.items() if other != name)


def test_verify_hecke_fails_a_planted_braid(monkeypatch):
    # T_1 T_2 T_1 ends in the step from s_1 s_2 = (1, 2, 0, 3) by T_1, which
    # T_2 T_1 T_2 never takes: the two sides differ by v
    _plant_rising_step(monkeypatch, (1, 2, 0, 3), 1)
    _only_failure(hk.verify_hecke(4), "braid T_1 T_2")


def test_verify_hecke_fails_a_planted_far_commutation(monkeypatch):
    # T_1 T_3 is the step from s_1 = (1, 0, 2, 3) by T_3; T_3 T_1 is not
    _plant_rising_step(monkeypatch, (1, 0, 2, 3), 3)
    _only_failure(hk.verify_hecke(4), "commute T_1 T_3")


def test_commuting_generators_product():
    # (T_1 T_3)(T_3 T_1) for d=4: expands through the quadratic twice
    d = 4
    x = hk.hecke_mul(hk.Ti(d, 1), hk.Ti(d, 3))
    y = hk.hecke_mul(hk.Ti(d, 3), hk.Ti(d, 1))
    prod = hk.hecke_mul(x, y)
    lin, t2 = hk.QUAD_LIN, hk.QUAD_CONST
    w11 = hk.right_s(hk.right_s(hk.identity_perm(d), 0), 2)
    expect = {
        w11: lin * lin,
        hk.right_s(hk.identity_perm(d), 2): lin * t2,
        hk.right_s(hk.identity_perm(d), 0): t2 * lin,
        hk.identity_perm(d): t2 * t2,
    }
    assert prod == hk.clean(expect)


def test_reduced_word_independence():
    # any reduced word gives the same T_w: multiply the unit along two words
    rng = random.Random(4)
    for w in hk.all_perms(3):
        word = hk.reduced_word(w)
        for _ in range(3):
            shuffled = braid_shuffle(word, rng)
            x = hk.unit(3)
            for i in shuffled:
                x = hk.mul_Ti(x, i + 1)
            assert x == hk.basis(w)


def braid_shuffle(word, rng):
    word = list(word)
    for _ in range(5):
        k = rng.randrange(max(len(word) - 1, 1)) if len(word) > 1 else 0
        if len(word) > 1 and abs(word[k] - word[k + 1]) > 1:
            word[k], word[k + 1] = word[k + 1], word[k]
        if len(word) > 2 and k < len(word) - 2:
            a, b, c = word[k:k + 3]
            if a == c and abs(a - b) == 1:
                word[k:k + 3] = [b, a, b]
    return word


def test_closure_dimension():
    # products of basis elements stay in the d!-span with exact coefficients
    for d in (2, 3):
        perms = hk.all_perms(d)
        for w in perms:
            for u in perms:
                prod = hk.hecke_mul(hk.basis(w), hk.basis(u))
                assert all(len(x) == d for x in prod)


def test_associativity_random():
    rng = random.Random(8)
    perms = hk.all_perms(3)
    for _ in range(50):
        def rand_elt():
            return {
                rng.choice(perms): mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 3))
                for _ in range(2)
            }
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert hk.hecke_mul(hk.hecke_mul(x, y), z) == hk.hecke_mul(x, hk.hecke_mul(y, z))


def test_sigma_invariance_of_quadratic():
    # (v,t) -> (-v,-t) fixes every coefficient of the quadratic relation
    for c in (hk.QUAD_LIN, hk.QUAD_CONST):
        flipped = laurent.VTPoly({(a, b): x * (-1) ** (a + b) for (a, b), x in c.c.items()})
        assert flipped == c


@pytest.mark.parametrize("d,p", [(2, 3), (3, 3), (2, 5), (3, 5)])
def test_geometric_model(d, p):
    results = hk.geometric_structure_match(d, p)
    bad = [(w, u) for w, u, ok in results if not ok]
    assert not bad


def test_json_roundtrip():
    x = elt_add(hk.Ti(3, 1), elt_scale(hk.unit(3), mono(1, 1)))
    doc = hk.to_json(x, 3)
    y, d = hk.from_json(doc)
    assert y == x and d == 3


def test_mul_skips_zero_coefficients():
    x = hk.Ti(3, 1)
    w1, w2 = (1, 0, 2), (0, 2, 1)
    assert hk.hecke_mul(x, {w1: laurent.ONE, w2: laurent.ZERO}) == hk.hecke_mul(x, {w1: laurent.ONE})
    assert hk.hecke_mul(x, {w2: laurent.ZERO}) == {}
