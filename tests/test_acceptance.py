"""Acceptance suite: the ten exit criteria, one printed line each.

Every criterion is exact (integer counts or identical Laurent polynomials);
nothing is compared with a numeric tolerance.  Run either under pytest or as
a script:

    python3 tests/test_acceptance.py
"""

import math
import sys
import time

from vtschur import galois, hecke, jparity, laurent, schur, stab, tensor, uvt
from vtschur.laurent import ONE
from vtschur.matrices import co, diag, mat, ro, unit as mat_unit, add as mat_add
from references import interior_part


def crit_1_oracle_equivalence():
    """Closed-form products match flag counting at v^2 = q in {3,5,7}."""
    total = 0
    for n in (2, 3):
        for d in (1, 2, 3):
            primes = (3,) if (n, d) == (3, 3) else (3, 5, 7)
            results = schur.oracle_compare(n, d, primes=primes)
            assert results
            bad = [(B, A) for B, A, ok in results if not ok]
            assert not bad, bad[:3]
            total += len(results)
    return "%d Chevalley pairs, even v-powers, exact counts" % total


def crit_2_relation_suite():
    """The seven defining relations hold identically on the geometric model."""
    for n, d in [(2, 1), (2, 2), (3, 2), (3, 3)]:
        checks = schur.verify_relations(n, d)
        bad = [nm for nm, ok in checks if not ok and not nm.startswith("expect-fail")]
        assert not bad, ((n, d), bad[:3])
    return "R1-R7 exact for (2,1),(2,2),(3,2),(3,3)"


def crit_3_commuting_actions():
    """Left and right actions commute on the full basis up to (4,3)."""
    for n, d in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]:
        bad = [nm for nm, ok in tensor.commute_check(n, d) if not ok]
        assert not bad, ((n, d), bad[:3])
    return "all generators vs all T_j up to (4,3)"


def crit_4_double_centralizer():
    """Commutant dimensions and word-image rank at two generic points."""
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        expect = math.comb(n * n + d - 1, d)
        for v0, t0 in [(2, 3), (5, 7)]:
            got = tensor.centralizer_dim("hecke", n, d, v0, t0)
            assert got == expect, ((n, d), (v0, t0), got, expect)
            got = tensor.centralizer_dim("uvt", n, d, v0, t0)
            assert got == math.factorial(d), ((n, d), (v0, t0), got)
        rank = tensor.surjectivity_rank(n, d)
        assert rank == expect, ((n, d), rank, expect)
    return "binom(n^2+d-1,d) and d! at (2,3) and (5,7); ranks reach the bound"


def crit_5_counting_identities():
    """Orbit-type counts reproduce n^d and d! by enumeration."""
    from vtschur import flags

    for p in (3, 5):
        for n in (2, 3):
            for d in (1, 2, 3):
                X = flags.enum_flags_X(p, d, n)
                Y = flags.enum_flags_Y(p, d)
                xy = {flags.orbit_matrix(V, F, p) for V in X for F in Y}
                assert len(xy) == n ** d, (n, d, p, len(xy))
                yy = {flags.orbit_matrix(F, G, p) for F in Y for G in Y}
                assert len(yy) == math.factorial(d), (d, p, len(yy))
    return "#Pi = n^d and #Sigma = d! for n<=3, d<=3, p in {3,5}"


def crit_6_star_twist():
    """Starred relations hold; t=1 schemes match; exponent identity."""
    for n, d in [(2, 1), (2, 2), (3, 2), (3, 3)]:
        bad = [nm for nm, ok in uvt.verify_all(n, d, star=True) if not ok]
        assert not bad, ((n, d), bad[:3])
    for n in (2, 3, 4):
        bad = [nm for nm, ok in uvt.t1_specialization_check(n) if not ok]
        assert not bad, (n, bad[:3])
    for n in range(2, 6):
        assert uvt.exponent_identity_holds(n), n
    return "R*1-R*4 as operators; t=1 schemes syntactic; exponents for n<=5"


def crit_7_hopf():
    """Hopf axioms and coproduct compatibility on all generators."""
    for n, d in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        bad = [nm for nm, ok in uvt.hopf_checks(n, d) if not ok]
        assert not bad, ((n, d), bad[:3])
    for n, d1, d2 in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1)]:
        bad = [nm for nm, ok in tensor.coproduct_compat(n, d1, d2) if not ok]
        assert not bad, ((n, d1, d2), bad[:3])
    return "coassociativity, counit, antipode, coproduct-compat (d1+d2 <= 3)"


def crit_8_stabilization():
    """Shifted-product fits, window relations, and window stability."""
    catalog = [
        (mat_unit(2, 1, 2), diag((0, 1))),
        (mat_unit(2, 1, 2), mat_unit(2, 2, 1)),
        (mat_unit(2, 2, 1), mat_unit(2, 1, 2)),
        (mat([[0, 2], [0, 0]]), diag((0, 2))),
        (mat([[0, 2], [0, 0]]), mat([[0, 0], [2, 0]])),
        (mat_add(mat_unit(3, 1, 2), diag((0, 0, 1))), mat_add(mat_unit(3, 2, 1), diag((0, 0, 1)))),
        (mat_unit(3, 2, 3), mat_unit(3, 3, 2)),
        (mat_unit(3, 2, 3), mat_unit(3, 3, 1)),
        (mat_add(mat_unit(2, 1, 2), diag((-1, 0))), diag((-1, 1))),
        (mat_add(mat_unit(3, 1, 2), diag((-2, 0, 0))), mat_add(mat_unit(3, 2, 3), diag((-2, 0, 0)))),
    ]
    assert len(catalog) == 10
    for A1, A2 in catalog:
        p0 = max(stab.suggested_p0(A1, A2), 3)
        fit = stab.stabilization_check(A1, A2, (p0, p0 + 1, p0 + 2))
        assert fit, (A1, A2)
    win = stab.WeightWindow(4, 2)
    for n in (2, 3):
        checks, _skipped = stab.limit_relation_suite(n, win)
        bad = [nm for nm, ok in checks if not ok]
        assert not bad, (n, bad[:3])
        bad = [nm for nm, ok in stab.generator_transport_suite(n, win) if not ok]
        assert not bad, (n, bad[:3])
    # widening the window never changes interior values
    small = stab.WeightWindow(4, 2)
    bigger = stab.WeightWindow(5, 3)
    for n in (2, 3):
        for build in (
            lambda w, n=n: stab.stab_mul(stab.e_limit(1, w, n), stab.f_limit(1, w, n)),
            lambda w, n=n: stab.stab_mul(stab.diagonal_weight((1,) * n, w, n), stab.e_limit(1, w, n)),
        ):
            xs = interior_part(schur.clean(build(small)), small)
            xb = interior_part(schur.clean(build(bigger)), small)
            assert xs == xb, n
    return "10 pair fits, window suite at W=4, interiors stable at W+1"


def crit_9_j_suites():
    """Both projector catalogs pass; idempotents orthogonal and exact."""
    for n, d, m in [(2, 2, 1), (3, 2, 1), (3, 3, 2)]:
        checks = jparity.verify_tilde_relations(n, d, m)
        bad = [nm for nm, ok in checks if not ok and not nm.startswith("expect-fail")]
        assert not bad, ((n, d, m), bad[:3])
    for n, d, m in [(3, 2, 1), (4, 2, 2), (4, 3, 1)]:
        checks = jparity.verify_hat_relations(n, d, m)
        bad = [nm for nm, ok in checks if not ok and not nm.startswith("expect-fail")]
        assert not bad, ((n, d, m), bad[:3])
    return "plain and refined catalogs (one-sided special-index rules) exact"


def crit_10_galois_descent():
    """Involution, equivariance, descent of generators, relations, Hecke."""
    assert galois.sigma_involutive(2, 2) and galois.sigma_involutive(3, 3)
    for n, d in [(2, 2), (3, 2), (3, 3)]:
        bad = [nm for nm, ok in galois.equivariance_check(n, d) if not ok]
        assert not bad, ((n, d), bad[:3])
        bad = [nm for nm, ok in galois.descent_suite(n, d) if not ok]
        assert not bad, ((n, d), bad[:3])
    checks = dict(galois.descent_suite(2, 3))
    assert checks["hecke quadratic d=3"] and checks["hecke braid/commute d=3"]
    return "sigma^2 = id; all descended coefficients rewrite over (r, s)"


CRITERIA = [
    ("1 oracle equivalence", crit_1_oracle_equivalence),
    ("2 relation suite", crit_2_relation_suite),
    ("3 commuting actions", crit_3_commuting_actions),
    ("4 double centralizer", crit_4_double_centralizer),
    ("5 counting identities", crit_5_counting_identities),
    ("6 star twist", crit_6_star_twist),
    ("7 hopf checks", crit_7_hopf),
    ("8 stabilization", crit_8_stabilization),
    ("9 j-suites", crit_9_j_suites),
    ("10 galois descent", crit_10_galois_descent),
]


def _run(name, fn):
    t0 = time.time()
    try:
        detail = fn()
    except AssertionError as exc:
        print("criterion %-22s FAIL (%.1fs): %s" % (name, time.time() - t0, exc))
        raise
    print("criterion %-22s PASS (%.1fs): %s" % (name, time.time() - t0, detail))


def test_criterion_1():
    _run("1 oracle equivalence", crit_1_oracle_equivalence)


def test_criterion_2():
    _run("2 relation suite", crit_2_relation_suite)


def test_criterion_3():
    _run("3 commuting actions", crit_3_commuting_actions)


def test_criterion_4():
    _run("4 double centralizer", crit_4_double_centralizer)


def test_criterion_5():
    _run("5 counting identities", crit_5_counting_identities)


def test_criterion_6():
    _run("6 star twist", crit_6_star_twist)


def test_criterion_7():
    _run("7 hopf checks", crit_7_hopf)


def test_criterion_8():
    _run("8 stabilization", crit_8_stabilization)


def test_criterion_9():
    _run("9 j-suites", crit_9_j_suites)


def test_criterion_10():
    _run("10 galois descent", crit_10_galois_descent)


if __name__ == "__main__":
    failures = 0
    for name, fn in CRITERIA:
        try:
            _run(name, fn)
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
