"""The two-parameter Iwahori-Hecke algebra on the permutation basis.

Elements are dicts {permutation: VTPoly}; permutations are 0-indexed tuples
in one-line notation.  Products extend the basis rule

    T_w T_i = T_{w s_i}                       if the length goes up,
    T_w T_i = (vt - v^{-1}t) T_w + t^2 T_{w s_i}   otherwise,

along reduced words, which keeps everything inside the d!-dimensional span.
"""

from __future__ import annotations

import itertools

from . import laurent
from .laurent import clean, elt_add, elt_add_into, elt_scale, mono

QUAD_LIN = mono(1, 1) + mono(-1, 1, -1)   # vt - v^{-1}t
QUAD_CONST = mono(0, 2)                   # t^2


def identity_perm(d):
    return tuple(range(d))

def all_perms(d):
    return [tuple(w) for w in itertools.permutations(range(d))]


def inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def right_s(w, i):
    """w s_i: swap positions i, i+1 (0-indexed generator i)."""
    w = list(w)
    w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def reduced_word(w):
    """A reduced word (list of 0-indexed generators) via descent bubbling."""
    w = tuple(w)
    word = []
    while True:
        desc = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if desc is None:
            break
        w = right_s(w, desc)
        word.append(desc)
    word.reverse()
    return word


def unit(d):
    return {identity_perm(d): laurent.ONE}


def basis(w):
    return {tuple(w): laurent.ONE}


def mul_Ti(x, i):
    """Right multiplication by the generator T_i (1-based index)."""
    d = len(next(iter(x)))
    if not 1 <= i <= d - 1:
        raise ValueError("generator index %d out of range for d=%d" % (i, d))
    j = i - 1
    out = {}
    for w, c in x.items():
        ws = right_s(w, j)
        if w[j] < w[j + 1]:
            out[ws] = out.get(ws, laurent.ZERO) + c
        else:
            out[w] = out.get(w, laurent.ZERO) + c * QUAD_LIN
            out[ws] = out.get(ws, laurent.ZERO) + c * QUAD_CONST
    return clean(out)


def mul_Tw(x, w):
    """Right multiplication by T_w along any reduced word for w."""
    for i in reduced_word(w):
        x = mul_Ti(x, i + 1)
    return x


def hecke_mul(x, y):
    """Bilinear product of two elements of the same degree."""
    if not x or not y:
        return {}
    dx = len(next(iter(x)))
    dy = len(next(iter(y)))
    if dx != dy:
        raise ValueError("degree mismatch: %d vs %d" % (dx, dy))
    out = {}
    for w, c in y.items():
        if c:
            elt_add_into(out, mul_Tw(x, w), c)
    return out


def Ti(d, i):
    return basis(right_s(identity_perm(d), i - 1))


def quadratic_certificate(i, d):
    """(T_i - vt)(T_i + s...) expanded: returns (element, rs_coefficients).

    The element must be zero; the certificate carries the quadratic's
    coefficients rewritten over (r, s): T_i^2 - (r - s) T_i - rs = 0.
    """
    ti = Ti(d, i)
    sq = hecke_mul(ti, ti)
    elt = elt_add(sq, elt_scale(ti, -QUAD_LIN))
    elt = elt_add(elt, elt_scale(unit(d), -QUAD_CONST))
    rs = {
        "T^2": laurent.to_rs(laurent.ONE).terms(),
        "T": laurent.to_rs(-QUAD_LIN).terms(),
        "1": laurent.to_rs(-QUAD_CONST).terms(),
    }
    return elt, rs


def verify_hecke(d):
    """Quadratic, braid and commuting relations; list of (name, ok)."""
    checks = []
    for i in range(1, d):
        elt, _ = quadratic_certificate(i, d)
        checks.append(("quadratic T_%d" % i, not elt))
    for i in range(1, d - 1):
        lhs = hecke_mul(hecke_mul(Ti(d, i), Ti(d, i + 1)), Ti(d, i))
        rhs = hecke_mul(hecke_mul(Ti(d, i + 1), Ti(d, i)), Ti(d, i + 1))
        checks.append(("braid T_%d T_%d" % (i, i + 1), lhs == rhs))
    for i in range(1, d):
        for j in range(i + 2, d):
            lhs = hecke_mul(Ti(d, i), Ti(d, j))
            rhs = hecke_mul(Ti(d, j), Ti(d, i))
            checks.append(("commute T_%d T_%d" % (i, j), lhs == rhs))
    return checks


# -- geometric dictionary ----------------------------------------------------

def perm_matrix(w):
    """Permutation matrix with the 1 of column j in row w(j)."""
    d = len(w)
    return tuple(tuple(1 if w[j] == i else 0 for j in range(d)) for i in range(d))


def geometric_structure_match(d, p, allow_large=False):
    """Compare algebraic products against complete-flag convolution counts.

    T_w corresponds to (v^{-1} t)^{l(w)} e_{sigma_w}; the counting structure
    constants must then reproduce every product T_w T_u at v^2 = p.
    Returns a list of (w, u, ok).
    """
    from . import flags

    table = flags.conv_table(p, d, d, kinds=("Y", "Y", "Y"), allow_large=allow_large)
    out = []
    for w in all_perms(d):
        for u in all_perms(d):
            alg = hecke_mul(basis(w), basis(u))
            geo = table.get((perm_matrix(w), perm_matrix(u)), {})
            # move the dictionary's monomial to the algebraic side
            shift = inversions(w) + inversions(u)
            e_prod = {perm_matrix(x): c * mono(-1, 1) ** (inversions(x) - shift)
                      for x, c in alg.items()}
            ok = flags.counts_match(e_prod, geo, p)
            out.append((w, u, ok))
    return out


# -- serialization -----------------------------------------------------------

def to_json(x, d):
    terms = [
        {"perm": list(w), "poly": laurent.to_json(c)}
        for w, c in sorted(x.items())
    ]
    return {"schema": 1, "algebra": "hecke", "d": d, "terms": terms}


def from_json(doc):
    if doc.get("algebra") != "hecke":
        raise ValueError("not a hecke element")
    x = {}
    for term in doc["terms"]:
        w = tuple(map(laurent.json_int, term["perm"]))
        if sorted(w) != list(range(doc["d"])):
            raise ValueError("perm %r is not a permutation of range(%d)" % (w, doc["d"]))
        if w in x:
            raise ValueError("repeated perm %r" % (w,))
        x[w] = laurent.from_json(term["poly"])
    return clean(x), doc["d"]
