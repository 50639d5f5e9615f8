import json
import random
from fractions import Fraction

import pytest

from vtschur.laurent import (
    ONE, T, TINV, V, VINV, VTPoly, ZERO,
    InexactDivision, NotDescendable, OddVPower,
    bar, eval_q, exact_div, from_json, mono, qbinom, qbinom_bar, qint,
    qint_any, specialize, to_json, to_rs, to_text, vint, vtfact, vtint,
)

from references import rs_to_vt, vbinom, vtbinom


def test_add_basics():
    assert (V + T) + (-V) == T
    assert ZERO + (V + T) == V + T
    p = mono(2, 1)
    assert p + p == mono(2, 1, 2)


def test_mul_basics():
    assert (V + T) * (V - T) == V * V - T * T
    assert VINV * V == ONE
    # (vt - v^{-1}t)(vt + v^{-1}t) = v^2 t^2 - v^{-2} t^2, by hand
    lhs = (V * T - VINV * T) * (V * T + VINV * T)
    assert lhs == mono(2, 2) - mono(-2, 2)


def test_pow():
    assert (V + T) ** 0 == ONE
    assert (V * T) ** -3 == mono(-3, -3)
    assert (-V) ** -3 == mono(-3, 0, -1)
    with pytest.raises(ValueError):
        (V + T) ** -1


def test_bar():
    assert bar(mono(2, 1)) == mono(-2, 1)
    assert bar(ONE) == ONE
    assert bar(V + VINV) == V + VINV
    # involution on random polynomials
    rng = random.Random(7)
    for _ in range(50):
        p = VTPoly({(rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-5, 5) for _ in range(6)})
        assert bar(bar(p)) == p


def test_qint():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == mono(2, 0) + 1
    with pytest.raises(ValueError):
        qint(-1)
    # (n)_v satisfies (v^2 - 1)(n)_v = v^{2n} - 1 for all n, negative included
    for n in range(-5, 6):
        assert (mono(2, 0) - 1) * qint_any(n) == mono(2 * n, 0) - 1


def test_qbinom():
    assert qbinom(2, 1) == mono(2, 0) + 1
    assert qbinom(5, 0) == ONE
    assert qbinom(3, 2) == mono(4, 0) + mono(2, 0) + 1
    assert qbinom_bar(2, 1) == mono(-2, 0) + 1
    # symmetry
    for n in range(13):
        for k in range(n + 1):
            assert qbinom(n, k) == qbinom(n, n - k)
    # Pascal recurrence C(n,k) = C(n-1,k-1) + v^{2k} C(n-1,k)
    for n in range(1, 9):
        for k in range(1, n):
            assert qbinom(n, k) == qbinom(n - 1, k - 1) + mono(2 * k, 0) * qbinom(n - 1, k)
    # negative top argument: C(-1,k) = (-1)^k v^{-k(k+1)}
    for k in range(5):
        assert qbinom(-1, k) == mono(-k * (k + 1), 0, (-1) ** k)


def test_vint_vbinom_vtfact():
    assert vint(2) == V + VINV
    assert vint(-3) == -vint(3)
    assert qbinom(2, 1).shift(-1, 0) == V + VINV
    assert qbinom(4, 2).shift(-4, 0) == mono(4, 0) + mono(2, 0) + mono(0, 0, 2) + mono(-2, 0) + mono(-4, 0)
    assert vtint(2) == V * T + VINV * T
    # [3]!_{v,t} = t^3 [2]_v [3]_v
    assert vtfact(3) == (vint(2) * vint(3)).shift(0, 3)


def test_binomials_are_shifted_qbinom():
    # the balanced and (v, t) binomials are qbinom up to a monomial; the
    # references divide exactly, as the package once did
    for n in range(9):
        for k in range(-2, n + 3):
            if k < 0:
                assert vbinom(n, k) == vtbinom(n, k) == ZERO
                with pytest.raises(ValueError):
                    qbinom(n, k)
                continue
            e = k * (n - k)
            assert vbinom(n, k) == qbinom(n, k).shift(-e, 0), (n, k)
            assert vtbinom(n, k) == qbinom(n, k).shift(-e, e), (n, k)


def test_specialize():
    assert specialize(V * T, 2, 3) == 6
    assert specialize(VINV, 2, 3) == Fraction(1, 2)
    assert specialize(V * T - VINV * T, 2, 3) == Fraction(9, 2)
    with pytest.raises(ValueError):
        specialize(V, 0, 1)
    # ring homomorphism on random pairs
    rng = random.Random(11)
    for _ in range(30):
        p = VTPoly({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)})
        q = VTPoly({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)})
        assert specialize(p * q, 2, 3) == specialize(p, 2, 3) * specialize(q, 2, 3)
        assert specialize(p + q, 5, 7) == specialize(p, 5, 7) + specialize(q, 5, 7)


def test_eval_q():
    assert eval_q(mono(2, 0) - 1, 3) == {0: 2}
    with pytest.raises(OddVPower):
        eval_q(V * T, 5)
    with pytest.raises(InexactDivision):
        eval_q(mono(-2, 2), 9)
    # multiplicativity on non-negative even v-powers, where every value is an integer
    rng = random.Random(3)
    for _ in range(30):
        p = VTPoly({(2 * rng.randint(0, 2), rng.randint(-2, 2)): rng.randint(-4, 4) for _ in range(4)})
        q = VTPoly({(2 * rng.randint(0, 2), rng.randint(-2, 2)): rng.randint(-4, 4) for _ in range(4)})
        pq = eval_q(p * q, 5)
        pp = eval_q(p, 5)
        qq = eval_q(q, 5)
        prod = {}
        for b1, x1 in pp.items():
            for b2, x2 in qq.items():
                prod[b1 + b2] = prod.get(b1 + b2, 0) + x1 * x2
        assert {b: x for b, x in prod.items() if x} == pq


def test_to_rs():
    assert to_rs(V * T).terms() == [((1, 0), 1)]
    assert to_rs(VINV * T).terms() == [((0, 1), 1)]
    with pytest.raises(NotDescendable):
        to_rs(V)
    # round trip on random even-total-degree polynomials
    rng = random.Random(19)
    for _ in range(1000):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            a = rng.randint(-5, 5)
            b = rng.randint(-5, 5)
            if (a + b) % 2:
                b += 1
            terms[(a, b)] = rng.randint(-9, 9)
        p = VTPoly(terms)
        assert rs_to_vt(to_rs(p)) == p


def test_exact_div():
    assert exact_div(V * V - T * T, V + T) == V - T
    assert exact_div(qint(4), qint(2)) == mono(4, 0) + 1
    with pytest.raises(InexactDivision):
        exact_div(V + ONE, T + ONE)
    with pytest.raises(InexactDivision):
        exact_div(V + T + ONE, V + T)
    rng = random.Random(23)
    for _ in range(60):
        p = VTPoly({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(4)})
        q = VTPoly({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(1, 4) for _ in range(3)})
        if p and q:
            assert exact_div(p * q, q) == p


def test_serialization():
    p = mono(-1, 2, 3) + mono(0, 0, -2)
    assert to_text(p) == "3*v^-1*t^2 + -2*v^0*t^0"
    assert from_json(to_json(p)) == p
    assert to_json(ZERO) == []
    assert to_text(ZERO) == "0"


def _to_json_via_fractions(p):
    """to_json as it was first written: a Fraction for every coefficient."""
    return [[a, b, Fraction(x).numerator, Fraction(x).denominator] for (a, b), x in p.terms()]


def test_to_json_int_shortcut_keeps_the_bytes():
    rng = random.Random(29)
    coeffs = [3, -7, 1, Fraction(2, 3), Fraction(-5, 4), Fraction(6, 3), Fraction(-4, 1)]
    for _ in range(80):
        p = VTPoly({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.choice(coeffs) for _ in range(5)})
        quads = to_json(p)
        assert json.dumps(quads) == json.dumps(_to_json_via_fractions(p))
        assert all(type(x) is int for quad in quads for x in quad)
        assert from_json(quads) == p
        assert json.dumps(to_json(from_json(quads))) == json.dumps(quads)
