import pytest

from vtschur import galois as ga, hecke, laurent, tensor, uvt
from vtschur.laurent import T, V, mono

from references import rs_to_vt


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
    assert rs_to_vt(laurent.to_rs(p)) == p


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


def test_planted_bracket_breaks_descended_r2(monkeypatch):
    # a pairing off by one gives R2 coefficients that are still fixed by the
    # involution (v^a t^b with a + b even) but wrong: the descended R2 checks
    # must read the operator identity, not only the coefficient.  R4 reads
    # the pairing too: the symmetric dot of i, i + 1 goes from -1 to 1, which
    # leaves the Serre relation the bare word E_{i+1} (F_{i+1})
    real = uvt.pairing
    monkeypatch.setattr(uvt, "pairing", lambda n, i, j: real(n, i, j) + 1)
    n = 3
    checks = dict(ga.descent_suite(n, 2))
    r2 = {"descended R2 A%d %s%d" % (i, g, j) for i in range(1, n + 1) for j in range(1, n) for g in "EF"}
    serre = {"descended Serre E 1", "descended Serre F 1"}
    assert {name for name, ok in checks.items() if not ok} == r2 | serre


def test_planted_cancelling_pair_breaks_only_its_descended_check(monkeypatch):
    # v F_1 - v F_1 added to R2 AF 1,1: the instance still holds, but its
    # coefficients now have both parities of a + b, so no one power of t
    # makes them all fixed
    real = uvt.relation_instances

    def planted(rel, n, star=False, fold=True):
        out = real(rel, n, star=star, fold=fold)
        return [(name, lhs + [(V, (("F", 1),)), (-V, (("F", 1),))] if name == "R2 AF 1,1" else lhs, rhs)
                for name, lhs, rhs in out]

    monkeypatch.setattr(uvt, "relation_instances", planted)
    assert all(ok for _, ok in uvt.verify_all(3, 2))
    fails = [name for name, ok in ga.descent_suite(3, 2) if not ok]
    assert fails == ["descended R2 A1 F1"]


def test_planted_odd_falling_coefficient_breaks_the_hecke_rows(monkeypatch):
    # a falling T_i column with v t^2 in place of t^2: odd total degree, so
    # the generator rows no longer descend
    real = hecke.t_column

    def planted(j, r):
        col = real(j, r)
        return {s: c * V if c == hecke.QUAD_CONST else c for s, c in col.items()}

    monkeypatch.setattr(hecke, "t_column", planted)
    checks = dict(ga.descent_suite(2, 6))
    assert not checks["hecke structure constants descend d=6"]
    # the quadratic certificate and verify_hecke's quadratics read the same
    # column; the generators and relations on tensor space do not
    hecke_checks = {name for name in checks if name.startswith("hecke ")}
    assert {name for name, ok in checks.items() if not ok} == hecke_checks
