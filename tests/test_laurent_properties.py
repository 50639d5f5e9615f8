"""Property tests of the Laurent polynomial ring and its maps."""

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from vtschur.galois import sigma_poly
from vtschur.laurent import (
    ONE, ZERO, InexactDivision, RSPoly, VTPoly, bar, elt_add_into, exact_div, from_json, mono,
    to_json, to_rs,
)

from references import poly_mul, rs_to_vt

PROPS = settings(max_examples=60, deadline=None, derandomize=True)

exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
coeffs = st.integers(-5, 5) | st.fractions(-3, 3, max_denominator=4)
polys = st.dictionaries(exps, coeffs, max_size=4).map(VTPoly)
int_polys = st.dictionaries(exps, st.integers(-5, 5), max_size=4).map(VTPoly)
nonzero = int_polys.filter(bool)


@PROPS
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p and p * ONE == p and p * ZERO == ZERO
    assert p - p == ZERO and -(-p) == p


# factors for the unit rule of VTPoly.__mul__: 1 itself (and a Fraction 1,
# which the rule must not skip), monomials and zero besides general polynomials
factors = st.sampled_from([ONE, VTPoly.const(Fraction(1)), ZERO]) | st.builds(
    mono, st.integers(-3, 3), st.integers(-3, 3), coeffs.filter(bool)) | polys


@PROPS
@given(factors, factors)
def test_product_matches_reference_and_skips_unit(p, q):
    prod, ref = p * q, poly_mul(p, q)
    # equal terms with equal coefficient types: a Fraction(1) is multiplied in
    assert prod.terms() == ref.terms()
    assert [type(x) for _, x in prod.terms()] == [type(x) for _, x in ref.terms()]
    assert p * ONE is p and ONE * p is p


@PROPS
@given(st.dictionaries(st.integers(0, 3), factors), st.dictionaries(st.integers(0, 3), factors))
def test_add_into_by_unit_adds_unmultiplied(out, x):
    assert elt_add_into(dict(out), x, ONE) == elt_add_into(dict(out), x)


@PROPS
@given(int_polys, nonzero)
def test_exact_div_inverts_multiplication(p, q):
    assert exact_div(p * q, q) == p


@PROPS
@given(int_polys, nonzero.filter(lambda q: len(q.c) > 1), exps, st.integers(1, 5))
def test_exact_div_rejects_non_multiples(p, q, e, c):
    # a polynomial with two or more terms divides no monomial, so p q + m is
    # not a multiple of q
    with pytest.raises(InexactDivision):
        exact_div(p * q + mono(*e, c), q)


@PROPS
@given(polys, polys)
def test_bar_and_sigma_are_ring_involutions(p, q):
    for f in (bar, sigma_poly):
        assert f(f(p)) == p
        assert f(p * q) == f(p) * f(q) and f(p + q) == f(p) + f(q)


@PROPS
@given(st.dictionaries(exps, coeffs, max_size=4).map(RSPoly),
       st.dictionaries(exps.filter(lambda e: sum(e) % 2 == 0), coeffs, max_size=4).map(VTPoly))
def test_rs_round_trips(rp, p):
    assert to_rs(rs_to_vt(rp)) == rp
    assert rs_to_vt(to_rs(p)) == p


@PROPS
@given(polys)
def test_json_round_trip(p):
    quads = to_json(p)
    assert from_json(quads) == p
    assert all(isinstance(x, int) for q in quads for x in q)
    assert all(isinstance(x, int) or x.denominator != 1 for x in from_json(quads).c.values())


@PROPS
@given(polys, coeffs)
def test_constants_equal_and_hash_like_their_value(p, x):
    # a number equals the constant polynomial of its value and nothing else,
    # from either side, and equal objects hash alike
    c = VTPoly.const(x)
    assert c == x and x == c and hash(c) == hash(x) and len({c, x}) == 1
    assert (p == x) == (x == p) == (p == c)
    if p == x:
        assert hash(p) == hash(x)


@PROPS
@given(polys, st.fractions(-3, 3, max_denominator=4))
def test_fraction_scalars_add_like_constants(p, q):
    # a Fraction scalar adds and subtracts from either side as its constant
    # polynomial, as an int does
    c = VTPoly.const(q)
    assert p + q == p + c and q + p == c + p
    assert p - q == p - c and q - p == c - p


def test_constant_examples():
    assert len({ONE, 1, Fraction(1)}) == 1 and len({ZERO, 0}) == 1
    assert VTPoly.const(Fraction(1, 2)) == Fraction(1, 2) != ONE
    assert mono(1, 0) != 1 and hash(mono(0, 0, 3)) == hash(3)
