"""Tensor space with the left quantum-algebra action and right Hecke action.

Basis vectors are sequences r = (r_1, ..., r_d) with entries in [1, n];
elements are dicts {seq: VTPoly}.  Operators (LinOp) are column-sparse dicts
{basis seq: element}, the common arena where every relation of the presented
algebras is verified exactly (identities between word combinations on their
columns at the sorted sequences, combo_columns).  The right action of T_j
(op_T) is the Hecke algebra's own basis rule, read on sequences
(hecke.t_column).

Operators are clean by construction: no op_* result holds a zero entry or
an empty column.  Sums, products and scalings are accumulated in place,
column by column, into a result their caller owns (op_add_into, on
laurent.elt_add_into), and that is the only place zeros are dropped; so two
operators are equal exactly when they are equal as dicts (op_eq).  Any other operator is read-only by convention: the
cached generator operators (op_sym, op_T) are shared, and so is the
operator of a one-symbol word (op_word returns op_sym's own).

The double-centralizer checks share one certificate per (n, d, v0, t0)
(_certificate): modular upper bounds meet the ranks of word span closures,
at the first certification prime at which v0 and t0 are units.  Three facts
keep the systems small.  The s_mu generate tensor space over the Hecke
algebra by rising swaps of coefficient 1, so the Hecke side needs only the
columns at the s_mu: its lower bound closes those columns of the words,
and its upper bound is a sum of eigenspace dimensions on N unknowns each,
not a Sylvester system on N^2.  The A_a and B_a act diagonally, so the
quantum side's unknowns are only the matrix entries between sequences of
one Cartan class (linalg.commutant_upper).  And an inverse is a polynomial
in its element (Cayley-Hamilton), so the words need only E_i, F_i, A_a and
B_a, not A_a^{-1} or B_a^{-1}.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import hecke, laurent, linalg
from .laurent import elt_add_into, mono
from .matrices import compositions

# -- elements ----------------------------------------------------------------

def all_seqs(n, d):
    return [tuple(s) for s in itertools.product(range(1, n + 1), repeat=d)]


# -- the defining actions (Jimbo's, deformed in t) -------------------------------

def gens(n):
    out = [("E", i) for i in range(1, n)] + [("F", i) for i in range(1, n)]
    out += [("A", a, s) for a in range(1, n + 1) for s in (1, -1)]
    out += [("B", a, s) for a in range(1, n + 1) for s in (1, -1)]
    return out


@lru_cache(maxsize=1024)
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


# -- operators -----------------------------------------------------------------

def op_identity(n, d):
    return {r: {r: laurent.ONE} for r in all_seqs(n, d)}


def op_eq(P, Q):
    """Equality of operators; dict equality, since operators are clean."""
    return P == Q


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
    return op_add_into(op_add_into({}, P), Q)


def op_scale(P, poly):
    return op_add_into({}, P, poly)


def op_sub(P, Q):
    return op_add_into(op_add_into({}, P), Q, -1)


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
    return {r: col for r in all_seqs(n, d) if (col := _column(sym, r))}


def op_word(word, n, d):
    """Operator of a word, its last symbol applied first; a one-symbol word
    is the cached op_sym itself, the empty word the identity."""
    if not word:
        return op_identity(n, d)
    P = op_sym(word[-1], n, d)
    for sym in reversed(word[:-1]):
        P = op_compose(op_sym(sym, n, d), P)
    return P


@lru_cache(maxsize=64)
def sorted_seqs(n, d):
    """{mu: s_mu} over compositions(n, d): s_mu is the sorted sequence of
    content mu, mu_1 entries 1, then mu_2 entries 2, and so on.  Shared;
    read-only."""
    return {mu: tuple(b + 1 for b, m in enumerate(mu) for _ in range(m)) for mu in compositions(n, d)}


def combo_columns(combo, n, d):
    """The columns at the sorted sequences s_mu, one per content mu, of the
    operator of a linear combination [(poly, word), ...] of generator words.
    Each word starts from its last symbol's cached op_sym columns there and
    composes the rest; the empty word starts from the unit columns.

    Two combinations are equal exactly when these columns are.  Every word
    commutes with each T_j (commute_check), so the difference does too, and
    the s_mu generate V^{(x)d} over the Hecke algebra (Dipper-James): the
    difference is zero once it vanishes at every s_mu.
    """
    seqs = sorted_seqs(n, d).values()
    out = {}
    for poly, word in combo:
        if not poly:
            continue
        if word:
            last = op_sym(word[-1], n, d)
            P = {s: last[s] for s in seqs if s in last}
        else:
            P = {s: {s: laurent.ONE} for s in seqs}
        for sym in reversed(word[:-1]):
            P = op_compose(op_sym(sym, n, d), P)
        op_add_into(out, P, poly)
    return out


@lru_cache(maxsize=64)
def op_T(j, n, d):
    return {r: hecke.t_column(j, r) for r in all_seqs(n, d)}


# -- duality checks --------------------------------------------------------------

def commute_guard(n, d):
    """The CLI's limit that (n, d) exceeds in commute_check, as text, or None."""
    return "commutation guard n<=4, d<=3 (got n=%d d=%d)" % (n, d) if n > 4 or d > 3 else None


def catalog_guard(n, d):
    """The CLI's limit that (n, d) exceeds in the relation catalogs of schur,
    uvt, star, jparity-* and descend, as text, or None (n and d are bounded
    before n ** d is computed: at a large d the power itself is slow)."""
    if n > 8 or d > 12 or n ** d > 4096:
        return "catalog guard n<=8, d<=12, n^d<=4096 (got n=%d d=%d)" % (n, d)


def commute_check(n, d):
    """Each generator operator commutes with each T_j: list of (label, ok)."""
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


def cert_points(v0, t0):
    """(p, v0 mod p, t0 mod p) for each prime of linalg.CERT_PRIMES at which
    v0 and t0 are units."""
    out = []
    for p in linalg.CERT_PRIMES:
        try:
            v, t = _residue(v0, p), _residue(t0, p)
            pow(v * t, -1, p)
        except ValueError:  # v0 or t0 is not a unit mod p
            continue
        out.append((p, v, t))
    return out


def _op_mod(P, idx, v, t, p):
    """An operator at v, t in F_p, as its columns: {row: residue} dicts in the order of idx."""
    cols = [{} for _ in idx]
    for r, col in P.items():
        out = cols[idx[r]]
        for s, c in col.items():
            val = sum(_residue(x, p) * pow(v, a, p) * pow(t, b, p) for (a, b), x in c.c.items()) % p
            if val:
                out[idx[s]] = val
    return cols


class Certificate(NamedTuple):
    """Certified commutant dimensions: (lower, upper) bounds of each side,
    equal, at the prime that certified them, and the rounds of the word
    closure."""
    prime: int
    hecke: tuple
    uvt: tuple
    rounds: int


def _hecke_upper(t_ops, idx, n, d, v, t, p):
    """Upper bound mod p of the Hecke action's commutant, from eigenspaces.

    An X that commutes with every T_j is fixed by its columns X(s_mu) (the
    generation lemma, see _certificate), and T_j s_mu = vt s_mu for each j
    in J(mu) = {j : s_mu[j-1] = s_mu[j]}, so X(s_mu) lies in the common
    eigenspace of those T_j for the root vt.  The bound is the sum over mu of
    the eigenspaces' dimensions: one nullity on N unknowns per distinct
    J(mu), weighted by the number of contents that share it.

    ArithmeticError if a column of a T_j is not hecke.t_column mod p: the
    bound rests on the rising and equal-entry rules, and a wrong falling
    column would shrink the eigenspaces to a bound that the word closure,
    stopped there, meets.
    """
    root = v * t % p
    lin = (root - pow(v, -1, p) * t) % p
    for j, cols in enumerate(t_ops, 1):
        for r, i in idx.items():
            a, b = r[j - 1], r[j]
            swap = idx[r[:j - 1] + (b, a) + r[j + 1:]]
            if a < b:
                want = {swap: 1}
            elif a == b:
                want = {i: root}
            else:
                want = {k: x for k, x in ((i, lin), (swap, t * t % p)) if x}
            if cols[i] != want:
                rule = "the quadratic rule" if a > b else "the generation lemma"
                raise ArithmeticError("T_%d breaks %s at column %r" % (j, rule, r))
    shapes = Counter(tuple(j for j in range(1, d) if s[j - 1] == s[j])
                     for s in sorted_seqs(n, d).values())
    return sum(m * linalg.eigen_nullity([t_ops[j - 1] for j in J], len(idx), root, p)
               for J, m in shapes.items())


@lru_cache(maxsize=4)
def _certificate(n, d, v0, t0):
    """The Certificate of the two commutants at (v0, t0).

    For each prime of cert_points(v0, t0), the operators are evaluated mod p
    and both commutants are sandwiched:

    * upper bound of the Hecke action's commutant: the eigenspace bound of
      _hecke_upper, N unknowns per distinct J(mu);
    * upper bound of the quantum action's commutant: the modular nullity of
      its constraint system (linalg.commutant_upper).  The diagonal A_a, B_a
      add no rows: they confine the unknowns to the entries between
      sequences of one Cartan class;
    * lower bound of the Hecke action's commutant: the span of generator
      words, restricted to the columns at the sorted sequences s_mu and
      closed from those columns of the identity until it reaches the upper
      bound.  A restriction can only lower a rank, so this is a lower bound;
      the words commute with the Hecke action, so it also certifies the
      word-image rank;
    * lower bound of the quantum action's commutant: the span of the Hecke
      words (the image of the Hecke algebra), closed from the identity.

    The generation lemma makes the restricted bounds meet.  Every sequence r
    of content mu is r = s_mu T_{j_1} ... T_{j_k}, each T_j applied to a
    sequence that rises at j: undo the bubble sort of r.  And T_j maps a
    sequence that rises at j to its swap with coefficient 1
    (hecke.t_column).  So an X that commutes with every T_j has
    X(r) = X(s_mu) T_{j_1} ... T_{j_k}: X is fixed by its columns at the
    s_mu, and restricting to them is injective on the commutant.  Hence the
    restricted word closure has the rank, and the rounds, of the whole one.
    The eigenspace bound is the commutant's dimension, not only a bound: the
    span of the sequences of content mu is the module induced from vt on the
    parabolic subalgebra of J(mu) (Dipper-James), so any eigenvectors
    X(s_mu) extend to an X that commutes with every T_j.

    The quantum side uses E_i, F_i, A_a and B_a only.  By Cayley-Hamilton
    the inverse of an invertible M is a polynomial in M, so dropping
    A_a^{-1} and B_a^{-1} changes neither the span of the words nor the
    commutant.

    The first prime at which both pairs meet returns; ArithmeticError if
    none does, or if a column of a T_j breaks its rule (_hecke_upper).
    """
    seqs = all_seqs(n, d)
    idx = {r: i for i, r in enumerate(seqs)}
    N = len(seqs)
    ident = {i * N + i: 1 for i in range(N)}
    columns = [{idx[s] * N + idx[s]: 1} for s in sorted_seqs(n, d).values()]
    bounds = "no prime of %s is usable at (v0, t0) = (%s, %s)" % (linalg.CERT_PRIMES, v0, t0)
    for p, v, t in cert_points(v0, t0):
        # E_i, F_i, A_a, B_a: the inverses add nothing (see above)
        u_ops = [_op_mod(op_sym(g, n, d), idx, v, t, p) for g in gens(n) if g[2:] != (-1,)]
        t_ops = [_op_mod(op_T(j, n, d), idx, v, t, p) for j in range(1, d)]
        h_upper = _hecke_upper(t_ops, idx, n, d, v, t, p)
        u_upper = linalg.commutant_upper(u_ops, N, p)
        h_lower, rounds = linalg.mod_span_closure(columns, u_ops, p, stop=h_upper)
        u_lower, _ = linalg.mod_span_closure([ident], t_ops, p, stop=u_upper)
        if (h_lower, u_lower) == (h_upper, u_upper):
            return Certificate(p, (h_lower, h_upper), (u_lower, u_upper), rounds)
        bounds = ("commutant bounds disagree at p=%d: %d..%d for the Hecke action, "
                  "%d..%d for the quantum action" % (p, h_lower, h_upper, u_lower, u_upper))
    raise ArithmeticError(bounds)


def certificate(n, d, v0=2, t0=3):
    """The shared Certificate of both commutants at (v0, t0) (see _certificate);
    degenerate specializations are rejected."""
    return _certificate(n, d, *check_point(v0, t0))


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
    cert = certificate(n, d, v0, t0)
    return (cert.hecke if side == "hecke" else cert.uvt)[1]


def surjectivity_rank(n, d, v0=2, t0=3):
    """Rank of the span of generator-word operator images.

    The rank is the closure of the shared certificate: the rank of the
    words restricted to their columns at the s_mu, a lower bound of the
    whole rank that meets the Hecke-commutant dimension (an upper bound,
    since the image commutes with the Hecke action).  A closure that needed
    words longer than 8d (more than 8d rounds) raises.
    """
    cert = certificate(n, d, v0, t0)
    if cert.rounds > 8 * d:
        raise ArithmeticError("word-image span did not stabilize below the cap")
    return cert.hecke[0]


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
