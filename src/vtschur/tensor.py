"""Tensor space with the left quantum-algebra action and right Hecke action.

Basis vectors are sequences r = (r_1, ..., r_d) with entries in [1, n];
elements are dicts {seq: VTPoly}.  Operators (LinOp) are column-sparse dicts
{basis seq: element}, the common arena where every relation of the presented
algebras is verified exactly.

Operators are clean by construction: no op_* result holds a zero entry or
an empty column.  Sums, products and scalings are accumulated in place,
column by column, into a result their caller owns (op_add_into, on
laurent.elt_add_into).  Any other operator is read-only by convention: the
cached generator operators (op_sym, op_T) are shared, and so is the
operator of a one-symbol word (op_word returns op_sym's own).

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
from .laurent import clean, elt_add_into, mono

# -- elements ----------------------------------------------------------------

def all_seqs(n, d):
    return [tuple(s) for s in itertools.product(range(1, n + 1), repeat=d)]


# -- the defining actions (Jimbo's, deformed in t) -------------------------------

def gens(n):
    out = [("E", i) for i in range(1, n)] + [("F", i) for i in range(1, n)]
    out += [("A", a, s) for a in range(1, n + 1) for s in (1, -1)]
    out += [("B", a, s) for a in range(1, n + 1) for s in (1, -1)]
    return out


def cartan_weight(sym, k):
    """The scalar by which A_a^s or B_a^s acts where k entries equal a:
    v^{sk} t^{sk} for A, v^{-sk} t^{sk} for B."""
    sk = sym[2] * k
    return mono(sk if sym[0] == "A" else -sk, sk)


def _column(sym, r):
    """Column r of a generator's operator.  E_i lowers one entry i+1 to i and
    weighs the entries i, i+1 to its right, F_i raises one entry i to i+1 and
    weighs those to its left: v to the count of the new value minus that of
    the old, t to their total (plus 1 for E).  Each position has its own target."""
    kind = sym[0]
    if kind in ("A", "B"):
        return {r: cartan_weight(sym, r.count(sym[1]))}
    if kind not in ("E", "F"):
        raise ValueError("unknown generator symbol %r" % (sym,))
    i = sym[1]
    old, new = (i + 1, i) if kind == "E" else (i, i + 1)
    out = {}
    for p, x in enumerate(r):
        if x == old:
            seen = r[p + 1:] if kind == "E" else r[:p]
            a, b = seen.count(new), seen.count(old)
            out[r[:p] + (new,) + r[p + 1:]] = mono(a - b, a + b + (kind == "E"))
    return out


def _t_column(j, r):
    """Column r of the right Hecke action of T_j (1-based j in [1, d-1])."""
    a, b = r[j - 1], r[j]
    swapped = r[:j - 1] + (b, a) + r[j + 1:]
    if a < b:
        return {swapped: laurent.ONE}
    if a == b:
        return {r: mono(1, 1)}
    return {r: mono(1, 1) - mono(-1, 1), swapped: mono(0, 2)}


# -- operators -----------------------------------------------------------------

def op_identity(n, d):
    return {r: {r: laurent.ONE} for r in all_seqs(n, d)}


def op_clean(P):
    return {r: col for r, col in ((r, clean(col)) for r, col in P.items()) if col}


def op_eq(P, Q):
    """Equal up to zero entries and empty columns; clean operators compare directly."""
    return P == Q or op_clean(P) == op_clean(Q)


def op_add_into(out, Q, c=None):
    """Add c Q (Q itself when c is None) into the operator out, in place,
    column by column, dropping entries and columns that cancel; returns out.
    out must be the caller's own: it never receives Q's column dicts."""
    for r, col in Q.items():
        acc = elt_add_into(out.get(r, {}), col, c)
        if acc:
            out[r] = acc
        else:
            out.pop(r, None)
    return out


def op_add(P, Q):
    return op_add_into(op_clean(P), Q)


def op_scale(P, poly):
    return op_add_into({}, P, poly)


def op_sub(P, Q):
    return op_add_into(op_clean(P), Q, -1)


def op_apply(P, x):
    out = {}
    for r, c in x.items():
        elt_add_into(out, P.get(r, {}), c)
    return out


def op_compose(P, Q):
    """P after Q (the operator of the product P Q)."""
    out = {}
    for r, col in Q.items():
        acc = op_apply(P, col)
        if acc:
            out[r] = acc
    return out


@lru_cache(maxsize=1024)
def op_sym(sym, n, d):
    return op_clean({r: _column(sym, r) for r in all_seqs(n, d)})


def op_word(word, n, d):
    """Operator of a word, its last symbol applied first; a one-symbol word
    is the cached op_sym itself, the empty word the identity."""
    if not word:
        return op_identity(n, d)
    P = op_sym(word[-1], n, d)
    for sym in reversed(word[:-1]):
        P = op_compose(op_sym(sym, n, d), P)
    return P


def op_combo(combo, n, d):
    """Operator of a linear combination [(poly, word), ...]."""
    out = {}
    for poly, word in combo:
        if poly:
            op_add_into(out, op_word(word, n, d), poly)
    return out


@lru_cache(maxsize=64)
def op_T(j, n, d):
    return op_clean({r: _t_column(j, r) for r in all_seqs(n, d)})


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
    return out


def coproduct_compat(n, d1, d2):
    """Action on V^{d1+d2} equals the coproduct legs acting on the factors."""
    out = []
    d = d1 + d2
    for g in gens(n):
        full = op_sym(g, n, d)
        split = {}
        for lw, rw in coproduct_legs(g):
            op_add_into(split, tensor_word_op((lw, rw), n, (d1, d2)))
        out.append(("%r on %d+%d" % (g, d1, d2), op_eq(full, split)))
    return out
