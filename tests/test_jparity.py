import pytest

from vtschur import jparity as jp, schur, stab, tensor
from vtschur.laurent import ONE
from vtschur.matrices import add as mat_add, compositions, diag

from references import j_operator_by_sequence, verify_hat_relations_whole, verify_tilde_relations_whole


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
    # j_operator is the operator of j_schur_element; the reference keeps or
    # drops each sequence by its own entries
    for variant, signs, (n, d, m) in [
        ("tilde", ("+", "-"), (3, 2, 1)),
        ("hat", ("+", "-", "0"), (3, 2, 1)),
        ("tilde", ("+", "-"), (2, 2, 1)),
        ("hat", ("+", "-", "0"), (4, 3, 1)),
        ("hat", ("+", "-", "0"), (3, 4, 1)),
    ]:
        for s in signs:
            assert tensor.op_eq(jp.j_operator(variant, s, m, n, d),
                                j_operator_by_sequence(variant, s, m, n, d))


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
    # a J- rule that rejects content (1, 1) at (2, 2, 1), where low and mid
    # are both 1: no projector keeps it, so J+ + J- is no longer the
    # identity, and only the checks that read J- at (1, 1) fail; each
    # projector is still idempotent and the two are still orthogonal.  The
    # whole-operator reference, whose J- reads the same rule, agrees
    real = jp._keep

    def planted(variant, sign, d, low, mid):
        return real(variant, sign, d, low, mid) and (sign, low, mid) != ("-", 1, 1)

    monkeypatch.setattr(jp, "_keep", planted)
    checks = jp.verify_tilde_relations(2, 2, 1)
    failed = {name for name, ok in checks if not ok and not name.startswith("expect-fail")}
    assert failed == {"partition of unity", "J+ E_m = E_m J-", "J- E_m = E_m J+", "J+ F_m = F_m J-"}
    assert checks == verify_tilde_relations_whole(2, 2, 1)


def test_planted_overlap_breaks_orthogonality(monkeypatch):
    # a J+ rule that also keeps content (1, 1) at (2, 2, 1): J+ and J- now
    # overlap there, so they are not orthogonal and sum past the identity,
    # as on the whole operators
    real = jp._keep

    def planted(variant, sign, d, low, mid):
        return real(variant, sign, d, low, mid) or (sign, low, mid) == ("+", 1, 1)

    monkeypatch.setattr(jp, "_keep", planted)
    checks = jp.verify_tilde_relations(2, 2, 1)
    failed = {name for name, ok in checks if not ok and not name.startswith("expect-fail")}
    assert failed == {"partition of unity", "orthogonality J+ J-", "orthogonality J- J+",
                      "J+ E_m = E_m J-", "J- E_m = E_m J+", "J+ F_m = F_m J-"}
    assert checks == verify_tilde_relations_whole(2, 2, 1)


def test_planted_content_grouping_breaks_partition_of_unity(monkeypatch):
    # a content grouping that drops one sequence of content (1, 1, 1, 0),
    # which J0 keeps at (4, 3, 1): j_operator, a sum of content projectors
    # read off the grouping, then misses it, so the whole-operator
    # partition of unity fails.  The catalog reads contents, not the
    # grouping, and still passes.  The diagonal braced operators are
    # memoized on the grouping, so they are rebuilt on each side
    real = schur._content_groups

    def planted(n, d):
        groups = dict(real(n, d))
        groups[(1, 1, 1, 0)] = groups[(1, 1, 1, 0)][1:]
        return groups

    schur.braced_op.cache_clear()
    monkeypatch.setattr(schur, "_content_groups", planted)
    try:
        differ = [s for s in jp.SIGNS if jp.j_operator("hat", s, 1, 4, 3) != j_operator_by_sequence("hat", s, 1, 4, 3)]
        reference = verify_hat_relations_whole(4, 3, 1)
        checks = jp.verify_hat_relations(4, 3, 1)
    finally:
        schur.braced_op.cache_clear()
    assert differ == ["0"]
    failed = {name for name, ok in reference if not ok and not name.startswith("expect-fail")}
    assert "r1 partition of unity" in failed
    assert all(ok for name, ok in checks if not name.startswith("expect-fail"))


def test_planted_content_count_breaks_partition_of_unity(monkeypatch):
    # a content that counts the values 0..n-1 instead of 1..n: a sequence
    # holding n gets a content outside the compositions, which no projector
    # keeps, so the column path loses the partition of unity.  _content_groups
    # is memoized on _content, so it is emptied on each side
    schur._content_groups.cache_clear()
    monkeypatch.setattr(schur, "_content", lambda r, n: tuple(r.count(a) for a in range(n)))
    try:
        checks = jp.verify_hat_relations(4, 3, 1)
    finally:
        schur._content_groups.cache_clear()
    failed = {name for name, ok in checks if not ok and not name.startswith("expect-fail")}
    assert "r1 partition of unity" in failed


HAT_SIZES = [(3, 1, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2), (4, 4, 2),
             (5, 2, 1), (5, 3, 3), (5, 4, 2), (3, 4, 1), (8, 4, 1)]
TILDE_SIZES = [(2, 2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 1), (3, 4, 1), (4, 4, 2), (2, 5, 1)]


# (3, 4, 1) and (2, 5, 1): n < d
@pytest.mark.parametrize("variant,n,d,m", [("hat",) + s for s in HAT_SIZES] + [("tilde",) + s for s in TILDE_SIZES])
def test_column_catalogs_match_whole_operator_reference(variant, n, d, m):
    # the masks at the sorted sequences decide each projector identity as
    # the whole N x N operators do, in name, order and outcome
    if variant == "hat":
        assert jp.verify_hat_relations(n, d, m) == verify_hat_relations_whole(n, d, m)
    else:
        assert jp.verify_tilde_relations(n, d, m) == verify_tilde_relations_whole(n, d, m)
