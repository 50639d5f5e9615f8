import pytest

from vtschur import galois as ga, laurent, tensor
from vtschur.laurent import T, V, mono


def test_sigma_poly():
    assert ga.sigma_poly(V * T) == V * T
    assert ga.sigma_poly(V) == -V
    assert ga.sigma_poly(V * T - mono(-1, 1)) == V * T - mono(-1, 1)
    p = mono(2, 1, 3) + mono(0, 0, 5)
    assert ga.sigma_poly(ga.sigma_poly(p)) == p


def test_sigma_involutive_on_elements():
    assert ga.sigma_involutive(2, 2)
    assert ga.sigma_involutive(3, 2)


def test_equivariance_hand_case():
    # sigma(E_1 . v_2) = -t v_1 = (-E_1) . v_2
    lhs = ga.sigma_elt(tensor.op_sym(("E", 1), 2, 1)[(2,)])
    assert lhs == {(1,): -T}


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_equivariance_suite(n, d):
    assert all(ok for _, ok in ga.equivariance_check(n, d))


def test_fixed_check():
    n, d = 2, 1
    tE = tensor.op_scale(tensor.op_sym(("E", 1), n, d), laurent.T)
    assert ga.fixed_check(tE)
    assert not ga.fixed_check(tensor.op_sym(("E", 1), n, d))
    assert ga.fixed_check(tensor.op_sym(("A", 1, 1), n, d))
    assert ga.fixed_check(tensor.op_sym(("F", 1), n, d))
    assert ga.fixed_check(V * T) and not ga.fixed_check(V)


def test_descend():
    assert laurent.to_rs(V * T).terms() == [((1, 0), 1)]
    quad = mono(1, 1) - mono(-1, 1)
    assert laurent.to_rs(quad).terms() == [((0, 1), -1), ((1, 0), 1)]
    with pytest.raises(laurent.NotDescendable):
        laurent.to_rs(V + T)
    # round trip through the substitution
    p = mono(3, 1, 2) - mono(-2, 2, 7)
    assert laurent.rs_to_vt(laurent.to_rs(p)) == p


def test_descend_operator():
    n, d = 2, 2
    tE = tensor.op_scale(tensor.op_sym(("E", 1), n, d), laurent.T)
    out = ga.descend_op(tE)
    assert out
    with pytest.raises(laurent.NotDescendable):
        ga.descend_op(tensor.op_sym(("E", 1), n, d))


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
def test_descent_suite(n, d):
    checks = ga.descent_suite(n, d)
    assert checks and all(ok for _, ok in checks)


def test_descent_suite_hecke_d3():
    checks = dict(ga.descent_suite(2, 3))
    assert checks["hecke quadratic d=3"]
    assert checks["hecke structure constants descend d=3"]
    assert checks["hecke braid/commute d=3"]
