import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from vtschur import laurent, schur, stab
from vtschur.laurent import ONE, elt_combo, mono
from vtschur.matrices import (
    add as mat_add, co, diag, mat, ro, theta_matrices, unit as mat_unit, zero,
)

from references import chev_mul_per_term, interior_part


def test_shift_modes():
    A = mat_add(mat_unit(2, 1, 2), diag((-1, 0)))
    assert stab.shift(A, 2) == mat([[1, 1], [0, 2]])
    assert stab.shift(diag((1, 1)), 0) == diag((1, 1))
    assert stab.shift(diag((0, 0, 0)), 3) == diag((3, 3, 3))
    with pytest.raises(ValueError):
        stab.shift(diag((-3, 0)), 1)
    with pytest.raises(ValueError):
        stab.shift(A, 0)  # row/column sums must stay nonnegative


def test_stab_matches_finite_inside_theta():
    for n, d in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for B in theta_matrices(n, d):
            shape = schur.chev_shape(B)
            if shape is None or shape[0] == "diag":
                continue
            for A in theta_matrices(n, d):
                if ro(A) != co(B):
                    continue
                fin = schur.lmul_braced(B, {A: ONE})
                lim = schur.lmul_braced(B, {A: ONE}, stab=True)
                inside = {M: c for M, c in lim.items() if all(x >= 0 for row in M for x in row)}
                assert inside == fin
                for M in set(lim) - set(inside):
                    assert any(M[i][i] < 0 for i in range(n))


def test_stab_mult_negative_diagonal():
    # {E_12} . {E_21} in the limit algebra picks up the extra matrix with a
    # negative diagonal slot, with the same closed-form weights
    out = stab.stab_mul({mat_unit(2, 1, 2): ONE}, {mat_unit(2, 2, 1): ONE})
    assert set(out) == {diag((1, 0)), mat([[0, 1], [1, -1]])}
    assert out[mat([[0, 1], [1, -1]])] == ONE
    assert out[diag((1, 0))] == laurent.qbinom_bar(1, 1)


def test_diagonal_left_factor_is_identity_like():
    win = stab.WeightWindow(3, 1)
    x = stab.e_limit(1, win, 2)
    unitish = stab.diagonal_weight((0, 0), win, 2)
    lhs = schur.clean(stab.stab_mul(unitish, x))
    assert interior_part(lhs, win) == interior_part(x, win)


def test_completion_element_examples():
    win = stab.WeightWindow(2, 1)
    n = 2
    # weight zero: the truncated unit, all diagonal matrices with weight 1
    u = stab.diagonal_weight((0, 0), win, n)
    assert all(c == ONE for c in u.values())
    assert len(u) == 5 * 5
    # a single nonzero weight slot
    x = stab.diagonal_weight((1, 0), win, n)
    assert x[diag((2, -1))] == mono(2, 2)
    # the limit Chevalley element is the unweighted sum over diagonals
    e = stab.e_limit(1, win, n)
    assert set(e) == {mat_add(mat_unit(n, 1, 2), diag(l)) for l in win.lambdas(n)}
    with pytest.raises(ValueError):
        stab.completion_element(diag((1, 0)), (0, 0), win)


def test_completion_element_rejects_a_wrong_length_jvec():
    win = stab.WeightWindow(4)
    for jvec in [(1,), (1, 0, 0, 2)]:
        with pytest.raises(ValueError, match="jvec has %d entries, the matrix has 3 rows" % len(jvec)):
            stab.completion_element(mat_unit(3, 1, 2), jvec, win)


@pytest.mark.parametrize("n", [2, 3])
def test_limit_relation_suite(n):
    win = stab.WeightWindow(4, 2)
    checks, skipped = stab.limit_relation_suite(n, win)
    assert checks and all(ok for _, ok in checks)
    assert skipped > 0  # boundary terms exist and are reported, not asserted


def test_window_widening_stability():
    # interior coefficients asserted at W are unchanged at W + 1
    n = 2
    for W in (3, 4):
        small = stab.WeightWindow(W, 2)
        big = stab.WeightWindow(W + 1, 3)  # same interior box
        for build in (
            lambda w: stab.stab_mul(stab.e_limit(1, w, n), stab.f_limit(1, w, n)),
            lambda w: stab.stab_mul(stab.diagonal_weight((1, -2), w, n), stab.e_limit(1, w, n)),
        ):
            xs = interior_part(schur.clean(build(small)), small)
            xb = interior_part(schur.clean(build(big)), small)
            assert xs == xb


@pytest.mark.parametrize("n", [2, 3])
def test_generator_transport(n):
    win = stab.WeightWindow(4, 2)
    checks = stab.generator_transport_suite(n, win)
    assert checks and all(ok for _, ok in checks)


@pytest.mark.parametrize("n", [2, 3])
def test_suites_pass_at_margin_zero(n):
    # each relation with f factors is compared at margin f - 1 whatever the
    # window's own margin; at margin 0 the two-factor identities would lose
    # boundary terms to the truncation
    win = stab.WeightWindow(4, 0)
    checks, _skipped = stab.limit_relation_suite(n, win)
    assert checks and all(ok for _, ok in checks)
    checks = stab.generator_transport_suite(n, win)
    assert checks and all(ok for _, ok in checks)



@pytest.mark.parametrize("W,margin", [(0, 0), (3, 3), (3, -1)])
def test_window_rejects_bad_margin(W, margin):
    stab.WeightWindow(3, 0)  # margin 0 is a valid window
    with pytest.raises(ValueError, match=r"0 <= margin < W, got W=%d margin=%d" % (W, margin)):
        stab.WeightWindow(W, margin)

def test_stabilization_fit_constant():
    rep = stab.stabilization_check(mat_unit(2, 1, 2), diag((0, 1)), (3, 4, 5))
    # one output, and its pattern never touches v' or t': all three shifted
    # runs carry identical coefficients (the cleared value is (v^{-2}-1) * 1)
    pat = rep[mat_unit(2, 1, 2)]
    assert set(rep) == {mat_unit(2, 1, 2)}
    assert all(k == 0 and l == 0 for (_, _, k, l) in pat)
    assert pat == {(-2, 0, 0, 0): 1, (0, 0, 0, 0): -1}


def test_stabilization_fit_vprime():
    rep = stab.stabilization_check(mat_unit(2, 1, 2), mat_unit(2, 2, 1), (3, 4, 5))
    # the diagonal output genuinely depends on v' and t'
    pat = rep[diag((1, 0))]
    assert any(k or l for (_, _, k, l) in pat)
    # and its v'=t'=1 value was checked inside against the limit product
    assert rep[mat([[0, 1], [1, -1]])]


CATALOG = [
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

FIT_SHA256 = "39380959e8f7b9f5ac3724f9e1881cc29e99d95c576e1da634b56784eaaff3e0"


def catalog_fits():
    for A1, A2 in CATALOG:
        assert co(A1) == ro(A2), (A1, A2)
        p0 = max(stab.suggested_p0(A1, A2), 3)
        yield stab.stabilization_check(A1, A2, (p0, p0 + 1, p0 + 2))


def test_stabilization_catalog():
    assert len(CATALOG) == 10
    for rep in catalog_fits():
        assert rep  # the fit itself asserts consistency and the limit match


def test_stabilization_catalog_patterns_pinned():
    # sha256 of every fitted pattern of the catalog, recorded with the dense
    # Gauss-Jordan solver the sparse one replaced; the fifth pair's two systems
    # are under-determined, so this also pins the free unknowns at 0
    text = repr([sorted((z, sorted((k, str(g)) for k, g in pat.items())) for z, pat in rep.items())
                 for rep in catalog_fits()])
    assert hashlib.sha256(text.encode()).hexdigest() == FIT_SHA256


def test_window_comparison_witness():
    # two elements that differ at one interior matrix and at a boundary one
    # (sorted first, but outside the margin): the witness is the interior one
    win = stab.WeightWindow(4, 2)
    x = stab.e_limit(1, win, 2)
    y = dict(x)
    inner, edge = mat_add(mat_unit(2, 1, 2), diag((0, 1))), mat_add(mat_unit(2, 1, 2), diag((-4, -4)))
    y[inner], y[edge] = mono(1, 0), mono(0, 1)
    witnesses = {}
    suite = stab._WindowChecks(win, witnesses)
    suite.cmp("same", x, dict(x), 2)
    suite.cmp("differ", x, y, 2)
    suite.cmp("boundary only", x, {**x, edge: mono(0, 1)}, 2)
    assert suite.checks == [("same", True), ("differ", False), ("boundary only", True)]
    assert witnesses == {"differ": {"matrix": [[0, 1], [0, 1]], "lhs": "1*v^0*t^0", "rhs": "1*v^1*t^0"}}


def test_stab_suite_reports_witnesses(monkeypatch):
    # the finite rule drops the negative-diagonal terms, so the windowed
    # relations fail, and each failure carries its witness into the report
    from vtschur import cli

    monkeypatch.setattr(stab, "stab_mul", lambda x, y: schur.chev_mul(x, y))
    cfg = {"n": 2, "d": 2, "m": 1, "primes": (3,), "window": 4, "spec": (2, 3)}
    doc = cli.run_suite("stab", cfg).to_json_dict()
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert failed and all(set(c["witness"]) == {"matrix", "lhs", "rhs"} for c in failed)
    assert all("witness" not in c for c in doc["checks"] if c["status"] == "pass")
    first = next(c for c in failed if c["name"] == "weight past E_1 (1, 0)")
    assert first["witness"] == {"matrix": [[-2, 1], [0, -2]], "lhs": "1*v^-1*t^-1", "rhs": "0"}


def test_window_left_terms_are_classified_once(monkeypatch):
    # chev_mul classifies each left matrix once per suite, not once per
    # product: 3,645 chev_shape calls in one n=3, W=4 stab suite from cold
    # (70,577 when every left term of every product was classified)
    from vtschur import cli

    real, calls = schur.chev_shape, [0]

    def counted(B):
        calls[0] += 1
        return real(B)

    monkeypatch.setattr(schur, "chev_shape", counted)
    schur._classify.cache_clear()
    cfg = {"n": 3, "d": 2, "m": 1, "primes": (3,), "window": 4, "spec": (2, 3)}
    assert cli.run_suite("stab", cfg).passed
    assert 0 < calls[0] <= 3_645
    info = schur._classify.cache_info()
    assert info.currsize == info.misses  # the working set fits: nothing evicted


def _canon(x):
    return "\n".join("%r %s" % (M, laurent.to_text(c)) for M, c in sorted(x.items()))


STAB_PRODUCT_SHA256 = {
    "E1 F1": "a34feded33f967fd16dd71056c393b8175384632f5dcf1bc5ebb1ef5da35ac12",
    "serre E1 E2": "ff8120c4d15c99cd15bbdb76e02f5e4f23f0590dd4e30b4cc22afd8517a68808",
    "chevalley x theta (3,3)": "c04a2b2b30def5f90e4c9397b62ec94999c23506ab0a3fd9afc6c3d84ed37e30",
    "Z x E": "cecd9aeffd3be1a88b3f99b22ca791f17016ab23e2668f7aea1cb7952e6521ac",
    "E x Z": "6d09afe78c4ff0b8ff341a2618011715ba9d22d6a57dd61aaebd8b27961630a2",
    "Z x Z": "2b3adcd8adbbfc68f8be5aaa85cec071f5d991af7a34d458f078922c379974c2",
}


def test_stab_products_pinned():
    # sha256 of the canonical text of products recorded before the Chevalley
    # rule was memoized: a limit product, the three nested products of a
    # Serre relation at n=3, W=4, and every finite Chevalley x theta product;
    # the Z products (recorded before a diagonal left factor skipped the
    # per-term move) have weighted diagonal factors on the left
    win = stab.WeightWindow(4, 2)
    X, Y = stab.e_limit(1, win, 3), stab.e_limit(2, win, 3)
    Z1, Z2 = stab.diagonal_weight((1, -2, 0), win, 3), stab.diagonal_weight((1, 2, 3), win, 3)
    serre = [stab.stab_mul(X, stab.stab_mul(X, Y)), stab.stab_mul(X, stab.stab_mul(Y, X)),
             stab.stab_mul(Y, stab.stab_mul(X, X))]
    thetas = theta_matrices(3, 3)
    finite = [schur.chev_mul({B: ONE}, {A: ONE}) for B in thetas if schur.chev_shape(B)
              for A in thetas if ro(A) == co(B)]
    texts = {
        "E1 F1": _canon(stab.stab_mul(X, stab.f_limit(1, win, 3))),
        "serre E1 E2": "\n\n".join(map(_canon, serre)),
        "chevalley x theta (3,3)": "\n\n".join(map(_canon, finite)),
        "Z x E": _canon(stab.stab_mul(Z1, X)),
        "E x Z": _canon(stab.stab_mul(X, Z1)),
        "Z x Z": _canon(stab.stab_mul(Z1, Z2)),
    }
    assert {k: hashlib.sha256(t.encode()).hexdigest() for k, t in texts.items()} == STAB_PRODUCT_SHA256


def test_fit_rejects_low_p():
    with pytest.raises(ValueError):
        stab.stabilization_check(mat_unit(2, 1, 2), diag((0, 5)), (1, 2, 3))


@pytest.mark.parametrize("plist", [(5, 5, 5), (5, 5, 6), (5, 6, 5, 6)])
def test_fit_rejects_repeated_shifts(plist):
    # a repeated shift adds no equation, so it does not count toward three
    with pytest.raises(ValueError, match="three distinct shift values"):
        stab.stabilization_check(mat_unit(2, 1, 2), mat_unit(2, 2, 1), plist)
    assert stab.stabilization_check(mat_unit(2, 1, 2), mat_unit(2, 2, 1), (5, 6, 7, 5))


def test_window_products_pay_per_term_costs_once(monkeypatch):
    # VTPoly products in one n=3, W=4 stab suite from cold caches: 210,311
    # when each term paid for its own left coefficient and a diagonal factor
    # multiplied by ONE, 148,648 when every scaled side was scaled whole and a
    # unit right coefficient was multiplied in, 89,334 before the transport
    # products were cut to their interiors, 65,537 since; and no diagonal
    # factor reaches _row_moves
    from vtschur import cli

    real_mul, real_moves = laurent.VTPoly.__mul__, schur._row_moves
    for memo in (schur._row_moves, schur._classify, laurent.qbinom):
        memo.cache_clear()
    calls, kinds = [0], set()

    def counted(a, b):
        calls[0] += 1
        return real_mul(a, b)

    def moves(kind, *args):
        kinds.add(kind)
        return real_moves(kind, *args)

    monkeypatch.setattr(laurent.VTPoly, "__mul__", counted)
    monkeypatch.setattr(laurent.VTPoly, "__rmul__", counted)
    monkeypatch.setattr(schur, "_row_moves", moves)
    cfg = {"n": 3, "d": 2, "m": 1, "primes": (3,), "window": 4, "spec": (2, 3)}
    cli.run_suite("stab", cfg)
    assert 0 < calls[0] <= 90_000
    assert kinds == {"E", "F"}
    # a unit diagonal factor passes the right coefficients through: it keeps
    # the terms whose row sums lie in the window, with no product at all
    win = stab.WeightWindow(4, 2)
    x, one = stab.e_limit(1, win, 3), stab.diagonal_weight((0, 0, 0), win, 3)
    calls[0] = 0
    kept = stab.stab_mul(one, x)
    assert calls[0] == 0
    assert kept == {A: c for A, c in x.items() if max(map(abs, ro(A))) <= 4}


def test_window_right_factors_are_grouped_once(monkeypatch):
    # each window factor groups its terms by row sums once per suite, on its
    # first product as a right factor: 26,172 ro calls in schur in one n=3,
    # W=4 stab suite (82,305 when every product grouped its right factor)
    from vtschur import cli

    real, calls = schur.ro, [0]

    def counted(A):
        calls[0] += 1
        return real(A)

    monkeypatch.setattr(schur, "ro", counted)
    cfg = {"n": 3, "d": 2, "m": 1, "primes": (3,), "window": 4, "spec": (2, 3)}
    assert cli.run_suite("stab", cfg).passed
    assert 0 < calls[0] <= 26_172


def _window_factors(rng, n, win):
    """Window elements with Chevalley-shaped support: the unit-weighted E and
    F limits, weighted diagonals, and both scaled by a random polynomial."""
    jvec = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
    out = [stab.e_limit(h, win, n) for h in range(1, n)] + [stab.f_limit(h, win, n) for h in range(1, n)]
    out += [stab.diagonal_weight(jv, win, n) for jv in jvec]
    out += [stab.completion_element(mat_unit(n, 1, 2), jvec[0], win),
            stab.completion_element(mat_unit(n, 2, 1), jvec[1], win)]
    poly = mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((-2, 3))) + ONE
    out += [laurent.elt_scale(out[0], poly), laurent.elt_scale(out[-1], poly)]
    return out


@pytest.mark.parametrize("n,W", [(2, 3), (3, 2)])
def test_window_factor_steps_match_per_term_reference(n, W, monkeypatch):
    # products of unit and non-unit weighted window factors, and nested
    # products, equal the per-term reference; each factor builds the
    # chev_mul step of a side once, and only for the sides it is used on
    rng = random.Random(31 * n + W)
    win = stab.WeightWindow(W, 1)
    plain = _window_factors(rng, n, win)
    factors = [stab._Factor(x) for x in plain]
    built = []

    def counting(step):
        real = getattr(schur, step)

        def wrapped(x):
            built.append((step, id(x)))
            return real(x)
        return wrapped

    for step in ("chev_left", "chev_right"):
        monkeypatch.setattr(schur, step, counting(step))
    pairs = rng.sample(list(itertools.product(range(len(plain)), repeat=2)), 24)
    for i, j in pairs + pairs[:8]:
        got = stab.stab_mul(factors[i], factors[j])
        assert got == chev_mul_per_term(plain[i], plain[j], stab=True), (i, j)
    want = {("chev_left", id(factors[i])) for i, _ in pairs} | {("chev_right", id(factors[j])) for _, j in pairs}
    assert sorted(built) == sorted(want)
    for f in factors:
        assert ("left" in vars(f), "right" in vars(f)) == (("chev_left", id(f)) in want, ("chev_right", id(f)) in want)
    X, Y = factors[0], factors[2]
    assert stab.stab_mul(X, stab.stab_mul(Y, X)) == \
        chev_mul_per_term(plain[0], chev_mul_per_term(plain[2], plain[0], True), True)


@st.composite
def small_windows(draw):
    """A window factor at n = 2, W = 3 (a Chevalley or diagonal pattern, a
    weight vector and a scale) and a random right element on the window."""
    win = stab.WeightWindow(3, draw(st.integers(0, 2)))
    A0 = draw(st.sampled_from([zero(2), mat_unit(2, 1, 2), mat_unit(2, 2, 1), mat([[0, 2], [0, 0]])]))
    jvec = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    scale = draw(st.sampled_from([ONE, laurent.T, mono(1, -1, 2) + ONE]))
    x = laurent.elt_scale(stab.completion_element(A0, jvec, win), scale)
    keys = [mat_add(off, diag(lam)) for off in (zero(2), mat_unit(2, 1, 2), mat_unit(2, 2, 1))
            for lam in win.lambdas(2)]
    coefs = st.sampled_from([ONE, -ONE, mono(1, 0), mono(-1, 2, 3), mono(0, 1) + ONE])
    y = draw(st.dictionaries(st.sampled_from(keys), coefs, min_size=1, max_size=12))
    return x, y


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_windows())
def test_window_factor_products_property(case):
    x, y = case
    X, Y = stab._Factor(x), stab._Factor(y)
    want = chev_mul_per_term(x, y, stab=True)
    for _ in range(2):  # the second product reads both kept steps
        assert stab.stab_mul(X, Y) == want
    assert stab.stab_mul(Y, X) == chev_mul_per_term(y, x, stab=True)


def test_window_suite_products_cut_to_the_interior(monkeypatch):
    # VTPoly products and ro calls in schur in one n=3, W=4 stab suite from
    # cold caches, once the transport products are cut to what their
    # comparisons read and each Serre relation takes five products, its pair
    # sharing two: 89,334 products and 26,172 ro calls with full products
    from vtschur import cli

    real_mul, real_ro = laurent.VTPoly.__mul__, schur.ro
    calls = {"mul": 0, "ro": 0}

    def counted_mul(a, b):
        calls["mul"] += 1
        return real_mul(a, b)

    def counted_ro(A):
        calls["ro"] += 1
        return real_ro(A)

    monkeypatch.setattr(laurent.VTPoly, "__mul__", counted_mul)
    monkeypatch.setattr(laurent.VTPoly, "__rmul__", counted_mul)
    monkeypatch.setattr(schur, "ro", counted_ro)
    for memo in (schur._row_moves, schur._classify, laurent.qbinom):
        memo.cache_clear()
    cfg = {"n": 3, "d": 2, "m": 1, "primes": (3,), "window": 4, "spec": (2, 3)}
    assert cli.run_suite("stab", cfg).passed
    assert 0 < calls["mul"] <= 65_537
    assert 0 < calls["ro"] <= 20_891


def _reach_part(x, R):
    return {M: c for M, c in x.items() if max(abs(M[i][i]) for i in range(len(M))) <= R}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_windows())
def test_cut_products_match_full_products_on_their_interior(case):
    # a left factor of Chevalley entry r (0, 1 or 2 here) reads the right
    # terms of reach <= R + r for the product terms of reach <= R: the cut
    # product, of a window factor or of a plain element, is exact there
    x, y = case
    X, Y = stab._Factor(x), stab._Factor(y)
    shapes = {schur.chev_shape(B) for B in x}
    assert X.step == max(r for _, _, r in shapes)
    full = stab.stab_mul(X, Y)
    for R in range(0, 4):
        for right in (Y, y):
            cut = stab._window_mul(X, right, R)
            assert _reach_part(cut, R) == _reach_part(full, R), R
        assert Y.cut(R + X.step) is Y.cut(R + X.step)  # kept per bound
    assert Y.cut(3) is Y  # nothing beyond the window to cut


@pytest.mark.parametrize("n,W", [(2, 3), (3, 3)])
def test_cut_serre_matches_full_serre_on_the_interior(n, W):
    # the transport form of a Serre relation (inner products one step beyond
    # the bound, outer products at it) against the full products, with left
    # factors of entry 1 and 2 and weighted factors
    rng = random.Random(7 * n + W)
    win = stab.WeightWindow(W, 1)
    plain = _window_factors(rng, n, win)
    plain.append(stab.completion_element(mat([[0, 2] + [0] * (n - 2)] + [[0] * n] * (n - 1)), (1,) * n, win))
    factors = [stab._Factor(x) for x in plain]
    assert {f.step for f in factors} == {0, 1, 2}
    a, b, c = ONE, stab.VT_MID, mono(0, 2)
    for X, Y in rng.sample(list(itertools.product(factors, repeat=2)), 6):
        full = stab._serre(X, Y, stab.stab_mul(X, Y), stab.stab_mul(Y, X), a, b, c)
        for R in range(W + 1):
            inner = R + X.step
            cut = stab._serre(X, Y, stab._window_mul(X, Y, inner), stab._window_mul(Y, X, inner), a, b, c, R)
            assert _reach_part(cut, R) == _reach_part(full, R), R
        nested = elt_combo((stab.stab_mul(X, stab.stab_mul(X, Y)), a), (stab.stab_mul(X, stab.stab_mul(Y, X)), -b),
                           (stab.stab_mul(Y, stab.stab_mul(X, X)), c))
        assert full == nested  # five products for six, the same element


@pytest.mark.parametrize("kind", ["E", "F"])
def test_row_moves_shift_each_diagonal_entry_by_at_most_r(kind):
    # the bound the cut rests on: a factor of shape (kind, h, r) moves t in
    # N^n with sum r from the source row to the target row, so each diagonal
    # entry moves by at most r (negative diagonal entries included)
    rng = random.Random(5)
    for n in (2, 3, 4):
        for h in range(1, n):
            src, tgt = schur._chev_rows(kind, h)
            for r in (1, 2, 3):
                for _ in range(12):
                    a_src = tuple(rng.randint(-3, 3) if u == src else rng.randint(0, 3) for u in range(n))
                    a_tgt = tuple(rng.randint(-3, 3) if u == tgt else rng.randint(0, 3) for u in range(n))
                    moves = schur._row_moves(kind, r, n, src, a_src, a_tgt, True)
                    for new_tgt, new_src, _ in moves:
                        assert 0 <= new_tgt[tgt] - a_tgt[tgt] <= r
                        assert 0 <= a_src[src] - new_src[src] <= r
