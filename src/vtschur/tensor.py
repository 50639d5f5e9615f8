"""Tensor space with the left quantum-algebra action and right Hecke action.

Basis vectors are sequences r = (r_1, ..., r_d) with entries in [1, n];
elements are dicts {seq: VTPoly}.  Operators (LinOp) are column-sparse dicts
{basis seq: element}, the common arena where every relation of the presented
algebras is verified exactly.

The double-centralizer checks share one certificate per (n, d, v0, t0)
(_certificate): modular nullities ranked by connected component meet the
ranks of word span closures, at the first certification prime at which v0
and t0 are units.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import laurent, linalg
from .laurent import clean, elt_add, elt_scale, mono

# -- elements ----------------------------------------------------------------

def all_seqs(n, d):
    return [tuple(s) for s in itertools.product(range(1, n + 1), repeat=d)]


# -- the defining actions ------------------------------------------------------

def act_E(i, x, n):
    """Lower one entry i+1 to i; the weight counts matches to the right."""
    out = {}
    for r, c in x.items():
        for p, rp in enumerate(r):
            if rp != i + 1:
                continue
            va = sum((r[j] == i) - (r[j] == i + 1) for j in range(p + 1, len(r)))
            ta = 1 + sum((r[j] == i) + (r[j] == i + 1) for j in range(p + 1, len(r)))
            tgt = r[:p] + (i,) + r[p + 1:]
            out[tgt] = out.get(tgt, laurent.ZERO) + c * mono(va, ta)
    return clean(out)


def act_F(i, x, n):
    """Raise one entry i to i+1 (weights over the positions to the left)."""
    out = {}
    for r, c in x.items():
        for p, rp in enumerate(r):
            if rp != i:
                continue
            va = sum((r[j] == i + 1) - (r[j] == i) for j in range(p))
            ta = sum((r[j] == i) + (r[j] == i + 1) for j in range(p))
            tgt = r[:p] + (i + 1,) + r[p + 1:]
            out[tgt] = out.get(tgt, laurent.ZERO) + c * mono(va, ta)
    return clean(out)


def act_A(a, sign, x, n):
    out = {}
    for r, c in x.items():
        k = sign * sum(rj == a for rj in r)
        out[r] = c * mono(k, k)
    return clean(out)


def act_B(a, sign, x, n):
    out = {}
    for r, c in x.items():
        k = sum(rj == a for rj in r)
        out[r] = c * mono(-sign * k, sign * k)
    return clean(out)


def act_T(j, x):
    """Right Hecke action of T_j (1-based j in [1, d-1])."""
    out = {}
    for r, c in x.items():
        a, b = r[j - 1], r[j]
        swapped = r[:j - 1] + (b, a) + r[j + 1:]
        if a < b:
            out[swapped] = out.get(swapped, laurent.ZERO) + c
        elif a == b:
            out[r] = out.get(r, laurent.ZERO) + c * mono(1, 1)
        else:
            out[r] = out.get(r, laurent.ZERO) + c * (mono(1, 1) - mono(-1, 1))
            out[swapped] = out.get(swapped, laurent.ZERO) + c * mono(0, 2)
    return clean(out)


# -- generator symbols ---------------------------------------------------------

def gens(n):
    out = [("E", i) for i in range(1, n)] + [("F", i) for i in range(1, n)]
    out += [("A", a, s) for a in range(1, n + 1) for s in (1, -1)]
    out += [("B", a, s) for a in range(1, n + 1) for s in (1, -1)]
    return out


def apply_sym(sym, x, n):
    kind = sym[0]
    if kind == "E":
        return act_E(sym[1], x, n)
    if kind == "F":
        return act_F(sym[1], x, n)
    if kind == "A":
        return act_A(sym[1], sym[2], x, n)
    if kind == "B":
        return act_B(sym[1], sym[2], x, n)
    raise ValueError("unknown generator symbol %r" % (sym,))


# -- operators -----------------------------------------------------------------

def op_identity(n, d):
    return {r: {r: laurent.ONE} for r in all_seqs(n, d)}


def op_clean(P):
    return {r: col for r, col in ((r, clean(col)) for r, col in P.items()) if col}


def op_eq(P, Q):
    return op_clean(P) == op_clean(Q)


def op_add(P, Q):
    out = {r: dict(col) for r, col in P.items()}
    for r, col in Q.items():
        out[r] = elt_add(out.get(r, {}), col)
    return op_clean(out)


def op_scale(P, poly):
    return op_clean({r: elt_scale(col, poly) for r, col in P.items()})


def op_sub(P, Q):
    return op_add(P, op_scale(Q, -laurent.ONE))


def op_apply(P, x):
    out = {}
    for r, c in x.items():
        out = elt_add(out, elt_scale(P.get(r, {}), c))
    return out


def op_compose(P, Q):
    """P after Q (the operator of the product P Q)."""
    return op_clean({r: op_apply(P, col) for r, col in Q.items()})


@lru_cache(maxsize=1024)
def op_sym(sym, n, d):
    return op_clean({r: apply_sym(sym, {r: laurent.ONE}, n) for r in all_seqs(n, d)})


def op_word(word, n, d):
    P = op_identity(n, d)
    for sym in reversed(word):
        P = op_compose(op_sym(sym, n, d), P)
    return P


def op_combo(combo, n, d):
    """Operator of a linear combination [(poly, word), ...]."""
    out = {}
    for poly, word in combo:
        if poly:
            out = op_add(out, op_scale(op_word(word, n, d), poly))
    return out


@lru_cache(maxsize=64)
def op_T(j, n, d):
    return op_clean({r: act_T(j, {r: laurent.ONE}) for r in all_seqs(n, d)})


# -- duality checks --------------------------------------------------------------

def commute_check(n, d, allow_large=False):
    """Each generator operator commutes with each T_j: list of (label, ok)."""
    if (n > 4 or d > 3) and not allow_large:
        from .flags import GuardExceeded

        raise GuardExceeded("commutation guard n<=4, d<=3; pass allow_large=True")
    out = []
    for g in gens(n):
        G = op_sym(g, n, d)
        for j in range(1, d):
            Tj = op_T(j, n, d)
            out.append(("%r with T_%d" % (g, j), op_eq(op_compose(G, Tj), op_compose(Tj, G))))
    return out


def check_point(v0, t0):
    """The specialization (v0, t0) as Fractions; ValueError if it is degenerate."""
    v0, t0 = Fraction(v0), Fraction(t0)
    if v0 * t0 in (1, -1) or v0 == 0 or t0 == 0:
        raise ValueError("degenerate specialization (v0, t0) = (%s, %s)" % (v0, t0))
    return v0, t0


def _residue(x, p):
    """A rational as an element of F_p (ValueError if p divides its denominator)."""
    return x.numerator * pow(x.denominator, -1, p) % p


def _op_mod(P, idx, v, t, p):
    """Dense float64 residue matrix of an operator at v, t in F_p (rows/cols by idx)."""
    M = np.zeros((len(idx), len(idx)))
    for r, col in P.items():
        j = idx[r]
        for s, c in col.items():
            M[idx[s], j] = sum(_residue(x, p) * pow(v, a, p) * pow(t, b, p)
                               for (a, b), x in c.c.items()) % p
    return M


@lru_cache(maxsize=4)
def _certificate(n, d, v0, t0):
    """Certified (dim of the commutant of the Hecke action, dim of the
    commutant of the quantum action, rounds of the word closure).

    For each prime of linalg.CERT_PRIMES at which v0 and t0 are units, the
    operators are evaluated mod p and both commutants are sandwiched:

    * upper bounds: modular nullities of the two constraint systems, ranked
      by connected component;
    * lower bound of the Hecke action's commutant: the span of generator
      words, closed from the identity until it reaches the upper bound.  The
      words commute with the Hecke action, so this closure also certifies
      the word-image rank;
    * lower bound of the quantum action's commutant: the span of the Hecke
      words (the image of the Hecke algebra), by the same closure.

    The first prime at which both pairs meet returns; ArithmeticError if
    none does.
    """
    seqs = all_seqs(n, d)
    idx = {r: i for i, r in enumerate(seqs)}
    N = len(seqs)
    ident = np.eye(N)
    # words are homogeneous for the weight shift wt(row) - wt(column)
    wts = [tuple(r.count(a) for a in range(1, n + 1)) for r in seqs]
    shifts = {}
    grade = np.array([shifts.setdefault(tuple(x - y for x, y in zip(wr, wc)), len(shifts))
                      for wr in wts for wc in wts])
    bounds = "no prime of %s is usable at (v0, t0) = (%s, %s)" % (linalg.CERT_PRIMES, v0, t0)
    for p in linalg.CERT_PRIMES:
        try:
            v, t = _residue(v0, p), _residue(t0, p)
            pow(v * t, -1, p)
        except ValueError:  # v0 or t0 is not a unit mod p
            continue
        u_ops = [_op_mod(op_sym(g, n, d), idx, v, t, p) for g in gens(n)]
        t_ops = [_op_mod(op_T(j, n, d), idx, v, t, p) for j in range(1, d)]
        h_upper = linalg.commutant_upper(t_ops, N, p)
        u_upper = linalg.commutant_upper(u_ops, N, p)
        h_lower, rounds = linalg.mod_span_closure([ident], u_ops, p, grade, stop=h_upper)
        u_lower, _ = linalg.mod_span_closure([ident], t_ops, p, grade, stop=u_upper)
        if (h_lower, u_lower) == (h_upper, u_upper):
            return h_upper, u_upper, rounds
        bounds = ("commutant bounds disagree at p=%d: %d..%d for the Hecke action, "
                  "%d..%d for the quantum action" % (p, h_lower, h_upper, u_lower, u_upper))
    raise ArithmeticError(bounds)


def centralizer_dim(side, n, d, v0=2, t0=3):
    """Exact dimension of the commutant of one of the two actions.

    side='hecke' cuts out the commutant of the right Hecke operators (the
    image of the flag algebra when n >= d); side='uvt' the commutant of all
    quantum-algebra generators.  Degenerate specializations are rejected.

    Both sides come from one cached certificate per (n, d, v0, t0): modular
    lower and upper bounds that meet (see _certificate).
    """
    if side not in ("hecke", "uvt"):
        raise ValueError("side must be 'hecke' or 'uvt'")
    hdim, udim, _ = _certificate(n, d, *check_point(v0, t0))
    return hdim if side == "hecke" else udim


def surjectivity_rank(n, d, v0=2, t0=3):
    """Rank of the span of generator-word operator images.

    The word-length cap starts at 2d and doubles at most twice; a span that
    needs longer words raises.  The rank is the closure of the shared
    certificate, which meets the Hecke-commutant dimension (an upper bound,
    since the image commutes with the Hecke action).
    """
    hdim, _, rounds = _certificate(n, d, *check_point(v0, t0))
    if rounds > 8 * d:
        raise ArithmeticError("word-image span did not stabilize below the cap")
    return hdim


# -- coproduct ------------------------------------------------------------------

def coproduct_legs(sym):
    """Legs of the coproduct of a generator as pairs of generator words."""
    kind = sym[0]
    if kind == "E":
        i = sym[1]
        return [([sym], [("A", i, 1), ("B", i + 1, 1)]), ([], [sym])]
    if kind == "F":
        i = sym[1]
        return [([sym], []), ([("B", i, 1), ("A", i + 1, 1)], [sym])]
    return [([sym], [sym])]


def coproduct_word(word):
    """Multiplicative extension of the legs to a word."""
    legs = [([], [])]
    for sym in word:
        legs = [
            (l1 + a, r1 + b)
            for l1, r1 in legs
            for a, b in coproduct_legs(sym)
        ]
    return legs


def tensor_word_op(words, n, degrees):
    """Operator of words[0] x words[1] x ... on V^{degrees[0]} x V^{degrees[1]}
    x ..., each leg acting on its own block of consecutive positions."""
    out = {(): {(): laurent.ONE}}
    for word, k in zip(words, degrees):
        leg = op_word(word, n, k)
        out = {r + s: {a + b: x * y for a, x in col.items() for b, y in lcol.items()}
               for r, col in out.items() for s, lcol in leg.items()}
    return op_clean(out)


def coproduct_compat(n, d1, d2):
    """Action on V^{d1+d2} equals the coproduct legs acting on the factors."""
    out = []
    d = d1 + d2
    for g in gens(n):
        full = op_sym(g, n, d)
        split = {}
        for lw, rw in coproduct_legs(g):
            split = op_add(split, tensor_word_op((lw, rw), n, (d1, d2)))
        out.append(("%r on %d+%d" % (g, d1, d2), op_eq(full, split)))
    return out
