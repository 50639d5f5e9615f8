"""Exact sparse Laurent polynomials in the two deformation parameters (v, t).

The coefficient ring everywhere downstream is Z[v^{+-1}, t^{+-1}] (or its
rational version when a computation genuinely needs fractions).  A polynomial
is a dict mapping exponent pairs (a, b) -- the powers of v and t -- to a
nonzero integer or Fraction.  Values are immutable by convention: no function
here mutates a VTPoly after construction, so they can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class OddVPower(ValueError):
    """Substituting v^2 = q hit an odd power of v."""


class NotDescendable(ValueError):
    """Rewriting in (r, s) = (vt, v^{-1}t) hit a monomial of odd total degree."""


class InexactDivision(ArithmeticError):
    """An exact polynomial division left a remainder (transcription bug)."""


class VTPoly:
    """Sparse Laurent polynomial in v and t with exact coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.c = {}
        else:
            self.c = {k: x for k, x in coeffs.items() if x != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def mono(a, b, coeff=1):
        """The monomial coeff * v^a * t^b."""
        return VTPoly({(a, b): coeff})

    @staticmethod
    def const(x):
        return VTPoly({(0, 0): x})

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        # the exact type test first: isinstance against Fraction (an ABC) is slow
        if type(other) is not VTPoly and isinstance(other, (int, Fraction)):
            other = VTPoly.const(other)
        return isinstance(other, VTPoly) and self.c == other.c

    def __hash__(self):
        # a constant equals its value, so it hashes like it
        if not self.c.keys() - {(0, 0)}:
            return hash(self.c.get((0, 0), 0))
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if type(other) is not VTPoly and isinstance(other, (int, Fraction)):
            other = VTPoly.const(other)
        out = dict(self.c)
        for k, x in other.c.items():
            s = out.get(k, 0) + x
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        p = VTPoly.__new__(VTPoly)
        p.c = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = VTPoly.__new__(VTPoly)
        p.c = {k: -x for k, x in self.c.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not VTPoly and isinstance(other, (int, Fraction)):
            if other == 0:
                return VTPoly()
            p = VTPoly.__new__(VTPoly)
            p.c = {k: x * other for k, x in self.c.items()}
            return p
        # 1 is never multiplied in (_UNIT): the other factor is returned
        # itself, which is safe because no VTPoly is ever mutated
        sc, oc = self.c, other.c
        if sc == _UNIT and type(sc[(0, 0)]) is int:
            return other
        if oc == _UNIT and type(oc[(0, 0)]) is int:
            return self
        out = {}
        for (a1, b1), x1 in sc.items():
            for (a2, b2), x2 in oc.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + x1 * x2
                if s:
                    out[k] = s
                else:
                    del out[k]
        p = VTPoly.__new__(VTPoly)
        p.c = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self.c) != 1:
                raise ValueError("negative powers only for monomials")
            ((a, b), x), = self.c.items()
            if x not in (1, -1):
                raise ValueError("negative powers only for unit monomials")
            return VTPoly.mono(a * n, b * n, 1 if (x == 1 or n % 2 == 0) else -1)
        out = VTPoly.const(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Terms in canonical (lexicographic) order as ((a, b), coeff)."""
        return sorted(self.c.items())

    def coeff(self, a, b):
        return self.c.get((a, b), 0)

    def shift(self, a, b):
        """Multiply by the monomial v^a t^b."""
        p = VTPoly.__new__(VTPoly)
        p.c = {(x + a, y + b): v for (x, y), v in self.c.items()}
        return p

    def __repr__(self):
        return "VTPoly(%s)" % (to_text(self),)


ZERO = VTPoly()
ONE = VTPoly.const(1)
# the terms of 1; a product skips a factor with exactly these terms and an
# int coefficient (a Fraction(1) turns the other factor's ints into Fractions)
_UNIT = ONE.c
V = VTPoly.mono(1, 0)
T = VTPoly.mono(0, 1)
VINV = VTPoly.mono(-1, 0)
TINV = VTPoly.mono(0, -1)


def mono(a, b, coeff=1):
    return VTPoly.mono(a, b, coeff)


# -- sparse elements -----------------------------------------------------------
# Elements of every algebra and module downstream are dicts {basis key: VTPoly}.

def clean(x):
    """x without its zero values.  Zeros are dropped only where terms are
    summed (elt_add_into) and from elements read from outside (from_json):
    every other element is clean."""
    return {k: c for k, c in x.items() if c}


def elt_add_into(out, x, c=None):
    """Add c * x (x itself when c is None or 1) into out, in place, dropping
    the keys whose sum cancels; returns out.  out must be the caller's own
    dict: the values it gains may be x's (shared) polynomials."""
    if type(c) is VTPoly and c.c == _UNIT and type(c.c[(0, 0)]) is int:
        c = None
    for k, y in x.items():
        if c is not None:
            y = y * c
        prev = out.get(k)
        if prev is not None:
            y = prev + y
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    return out


def elt_add(x, y):
    return elt_add_into(dict(x), y)


def elt_combo(*terms):
    """The sum of c x over the (x, c) pairs, through one add-into each."""
    out = {}
    for x, c in terms:
        elt_add_into(out, x, c)
    return out


def elt_scale(x, poly):
    if not poly:
        return {}
    return {k: c * poly for k, c in x.items()}


def bar(p):
    """Bar involution: v -> v^{-1}; t is left untouched."""
    return VTPoly({(-a, b): x for (a, b), x in p.c.items()})


def qint(n):
    """Unbalanced quantum integer 1 + v^2 + ... + v^{2(n-1)}; qint(0) = 0."""
    if n < 0:
        raise ValueError("qint needs n >= 0")
    return VTPoly({(2 * k, 0): 1 for k in range(n)})


def qint_any(n):
    """(v^{2n} - 1)/(v^2 - 1) for any integer n (negative allowed)."""
    if n >= 0:
        return qint(n)
    return VTPoly({(2 * k, 0): -1 for k in range(n, 0)})


def vint(k):
    """Balanced quantum integer v^{k-1} + v^{k-3} + ... + v^{1-k}; odd in k."""
    if k == 0:
        return VTPoly()
    if k < 0:
        return -vint(-k)
    return VTPoly({(k - 1 - 2 * j, 0): 1 for j in range(k)})


@lru_cache(maxsize=256)
def qbinom(n, k):
    """Gaussian binomial prod_{i<=k} (n+1-i)_v / (i)_v, exact division.

    n may be negative (the stabilized multiplication rules need this);
    k must be a natural number.  For 0 <= k <= n, the balanced binomial is
    qbinom(n, k) v^{-k(n-k)}, the two-parameter one that times t^{k(n-k)}.
    """
    if k < 0:
        raise ValueError("qbinom needs k >= 0")
    if 0 <= n < k:
        return VTPoly()
    out = ONE
    for i in range(1, k + 1):
        out = exact_div(out * qint_any(n + 1 - i), qint(i))
    return out


def qbinom_bar(n, k):
    """The overlined Gaussian binomial (bar applied to qbinom)."""
    return bar(qbinom(n, k))


def vtint(k):
    """Two-parameter quantum integer ((vt)^k - (v^{-1}t)^k)/(vt - v^{-1}t) = t^{k-1}[k]_v."""
    if k < 0:
        raise ValueError("vtint needs k >= 0")
    return vint(k).shift(0, k - 1) if k else VTPoly()


def vtfact(p):
    """Two-parameter quantum factorial: product of vtint(1..p)."""
    out = ONE
    for k in range(1, p + 1):
        out = out * vtint(k)
    return out


def specialize(p, v0, t0):
    """Exact evaluation at nonzero rationals v0, t0."""
    v0 = Fraction(v0)
    t0 = Fraction(t0)
    if v0 == 0 or t0 == 0:
        raise ValueError("specialization point must be nonzero")
    out = Fraction(0)
    for (a, b), x in p.c.items():
        out += x * v0 ** a * t0 ** b
    return out


def eval_q(p, q):
    """Substitute v^2 = q, returning {t-power: integer coeff}.

    Every v-power must be even (OddVPower otherwise), and the result must
    have integer coefficients (InexactDivision otherwise).
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    out = {}
    for (a, b), x in p.c.items():
        if a % 2:
            raise OddVPower("monomial v^%d t^%d has odd v-power" % (a, b))
        val = x * Fraction(q) ** (a // 2)
        s = out.get(b, Fraction(0)) + val
        if s:
            out[b] = s
        else:
            out.pop(b, None)
    bad = {b: x for b, x in out.items() if x.denominator != 1}
    if bad:
        raise InexactDivision("non-integer values: %r" % (bad,))
    return {b: int(x) for b, x in out.items()}


class RSPoly:
    """Sparse Laurent polynomial in r = vt and s = v^{-1}t."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {k: x for k, x in (coeffs or {}).items() if x != 0}

    def __eq__(self, other):
        return isinstance(other, RSPoly) and self.c == other.c

    def __bool__(self):
        return bool(self.c)

    def terms(self):
        return sorted(self.c.items())

    def __repr__(self):
        if not self.c:
            return "RSPoly(0)"
        bits = []
        for (x, y), co in self.terms():
            bits.append("%s*r^%d*s^%d" % (co, x, y))
        return "RSPoly(%s)" % " + ".join(bits)


def to_rs(p):
    """Rewrite v^a t^b as r^{(a+b)/2} s^{(b-a)/2}; every a+b must be even."""
    out = {}
    for (a, b), x in p.c.items():
        if (a + b) % 2:
            raise NotDescendable("monomial v^%d t^%d has odd total degree" % (a, b))
        out[((a + b) // 2, (b - a) // 2)] = x
    return RSPoly(out)


def exact_div(p, q):
    """Exact division p / q in the Laurent ring; raises InexactDivision."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return VTPoly()
    if len(q.c) == 1:
        ((a, b), x), = q.c.items()
        return VTPoly({(a1 - a, b1 - b): _coeff_div(x1, x) for (a1, b1), x1 in p.c.items()})
    # Corner-normalize both operands so ordinary lex division applies; the
    # lost monomial shifts are restored on the quotient at the end.  For an
    # exact division every intermediate remainder is a multiple of q, so its
    # lex-leading term is divisible by q's; a failed divisibility check is a
    # proof of inexactness (and guards against the non-terminating descent a
    # naive Laurent division would enter).
    pa = min(a for a, _ in p.c)
    pb = min(b for _, b in p.c)
    qa = min(a for a, _ in q.c)
    qb = min(b for _, b in q.c)
    rem = {(a - pa, b - pb): x for (a, b), x in p.c.items()}
    qn = {(a - qa, b - qb): x for (a, b), x in q.c.items()}
    qlead = max(qn)
    qx = qn[qlead]
    out = {}
    while rem:
        lead = max(rem)
        x = rem[lead]
        kq = (lead[0] - qlead[0], lead[1] - qlead[1])
        if kq[0] < 0 or kq[1] < 0:
            raise InexactDivision("remainder term v^%d t^%d not reducible" % lead)
        f = out[kq] = _coeff_div(x, qx)
        for (a2, b2), x2 in qn.items():
            k = (a2 + kq[0], b2 + kq[1])
            s = rem.get(k, 0) - f * x2
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return VTPoly({(a + pa - qa, b + pb - qb): x for (a, b), x in out.items()})


def _coeff_div(x, y):
    """x / y exactly: an int if both are ints (InexactDivision if y does not divide x), else a Fraction."""
    if isinstance(x, int) and isinstance(y, int):
        if x % y:
            raise InexactDivision("coefficient %s not divisible by %s" % (x, y))
        return x // y
    return Fraction(x) / Fraction(y)


# -- serialization ---------------------------------------------------------

def to_text(p):
    """Canonical text form: terms 'c*v^a*t^b' in lexicographic order."""
    if not p.c:
        return "0"
    return " + ".join("%s*v^%d*t^%d" % (x, a, b) for (a, b), x in p.terms())


def to_json(p):
    """List of [a, b, numerator, denominator] quadruples in canonical order."""
    out = []
    for (a, b), x in p.terms():
        if type(x) is not int:  # an int is its own numerator, over 1
            x = Fraction(x)
        out.append([a, b, x.numerator, x.denominator])
    return out


def json_int(x):
    """x if it is a JSON integer (not a bool or a float); ValueError otherwise."""
    if type(x) is not int:
        raise ValueError("%r is not an integer" % (x,))
    return x


def from_json(quads):
    """Inverse of to_json; ValueError on a non-integer, a zero denominator or repeated exponents."""
    out = {}
    for quad in quads:
        a, b, num, den = map(json_int, quad)
        if den == 0 or (a, b) in out:
            raise ValueError("zero denominator or repeated exponents in %r" % (quad,))
        x = Fraction(num, den)
        out[(a, b)] = int(x) if x.denominator == 1 else x
    return VTPoly(out)
