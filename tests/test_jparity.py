import pytest

from vtschur import jparity as jp, schur, stab, tensor
from vtschur.laurent import ONE
from vtschur.matrices import add as mat_add, compositions, diag


def test_tilde_projector_small():
    # n=2, m=1, d=2: the even-parity projector keeps 11 and 22
    Jp = jp.j_operator("tilde", "+", 1, 2, 2)
    assert set(Jp) == {(1, 1), (2, 2)}
    Jm = jp.j_operator("tilde", "-", 1, 2, 2)
    assert set(Jm) == {(1, 2), (2, 1)}


def test_hat_projector_small():
    # n=3, m=1, d=1: entries equal to 2 go to the third projector
    Jp = jp.j_operator("hat", "+", 1, 3, 1)
    Jm = jp.j_operator("hat", "-", 1, 3, 1)
    J0 = jp.j_operator("hat", "0", 1, 3, 1)
    assert set(Jp) == {(1,)}
    assert set(Jm) == {(3,)}
    assert set(J0) == {(2,)}


def test_no_third_projector_for_tilde():
    with pytest.raises(ValueError):
        jp.j_operator("tilde", "0", 1, 2, 2)


@pytest.mark.parametrize("variant,sign,m", [
    ("tilde", "0", 1),   # the plain variant has no third projector
    ("tilde", "*", 1),   # unknown sign
    ("hat", "", 1),
    ("bogus", "+", 1),   # unknown variant
    ("tilde", "+", 0),   # m outside 1..n-1
    ("hat", "-", 3),
])
def test_invalid_projector_request(variant, sign, m):
    with pytest.raises(ValueError):
        jp.j_operator(variant, sign, m, 3, 2)
    with pytest.raises(ValueError):
        jp.j_schur_element(variant, sign, m, 3, 2)


@pytest.mark.parametrize("n,d,m", [(2, 2, 1), (3, 2, 1), (3, 3, 2)])
def test_tilde_suite(n, d, m):
    checks = jp.verify_tilde_relations(n, d, m)
    failed = [name for name, ok in checks if not ok and not name.startswith("expect-fail")]
    assert not failed
    printed = [ok for name, ok in checks if name.startswith("expect-fail")]
    assert printed and not any(printed)


# (3, 4, 1): n < d, where only the diagonal braced operators exist
@pytest.mark.parametrize("n,d,m", [(3, 2, 1), (4, 2, 2), (4, 3, 1), (3, 4, 1)])
def test_hat_suite(n, d, m):
    checks = jp.verify_hat_relations(n, d, m)
    failed = [name for name, ok in checks if not ok and not name.startswith("expect-fail")]
    assert not failed
    printed = [ok for name, ok in checks if name.startswith("expect-fail")]
    assert printed and not any(printed)


def test_hat_needs_room():
    with pytest.raises(ValueError):
        jp.verify_hat_relations(2, 2, 1)


def test_j_schur_element_matches_operator():
    for variant, signs, (n, d, m) in [
        ("tilde", ("+", "-"), (3, 2, 1)),
        ("hat", ("+", "-", "0"), (3, 2, 1)),
        ("tilde", ("+", "-"), (2, 2, 1)),
    ]:
        for s in signs:
            assert tensor.op_eq(
                schur.elt_op(jp.j_schur_element(variant, s, m, n, d), n, d),
                jp.j_operator(variant, s, m, n, d),
            )


def test_hat_s0_excludes_nonzero_slot():
    elt = jp.j_schur_element("hat", "+", 1, 3, 2)
    assert elt and all(D[1][1] == 0 for D in elt)
    elt0 = jp.j_schur_element("hat", "0", 1, 3, 2)
    assert elt0 and all(D[1][1] > 0 for D in elt0)


def test_tilde_sum_is_unit():
    from vtschur import schur

    total = {}
    for s in ("+", "-"):
        total = schur.elt_add(total, jp.j_schur_element("tilde", s, 1, 3, 2))
    assert total == schur.unit(3, 2)


def tilde_parity_preserved_by_double_shift(n, d, m, p):
    """The K'-style 2pI shift never changes the projector membership."""
    for lam in compositions(n, d):
        M = stab.shift(diag(lam), 2 * p)
        lam2 = tuple(M[i][i] for i in range(n))
        if (sum(lam[:m]) - sum(lam2[:m])) % 2:
            return False
    return True


def hat_diagonals_stay_primed(n, d, m, p):
    """2pI' shifts (I' missing the (m+1) slot) keep J-compatible diagonals
    inside the primed matrix set."""
    for D in jp.j_schur_element("hat", "+", m, n, d):
        M = mat_add(D, diag(tuple(0 if a == m + 1 else 2 * p for a in range(1, n + 1))))
        if M[m][m] < 0:
            return False
    return True


def test_shift_compatibility():
    assert tilde_parity_preserved_by_double_shift(3, 2, 1, 2)
    assert tilde_parity_preserved_by_double_shift(2, 3, 1, 3)
    assert hat_diagonals_stay_primed(3, 2, 1, 2)
    assert hat_diagonals_stay_primed(4, 2, 2, 1)


def test_planted_projector_breaks_partition_of_unity(monkeypatch):
    # a J- that misses one sequence: J+ + J- is no longer the identity, and
    # only the checks that read J- fail; each projector is still idempotent
    # and the two are still orthogonal
    real = jp.j_operator

    def planted(variant, sign, m, n, d):
        P = real(variant, sign, m, n, d)
        if sign == "-":
            del P[min(P)]
        return P

    monkeypatch.setattr(jp, "j_operator", planted)
    checks = jp.verify_tilde_relations(2, 2, 1)
    failed = {name for name, ok in checks if not ok and not name.startswith("expect-fail")}
    assert failed == {"partition of unity", "J+ E_m = E_m J-", "J- E_m = E_m J+", "J+ F_m = F_m J-"}
