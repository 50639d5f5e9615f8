"""The presented two-parameter quantum algebra: gradings, twist, relations.

Everything is verified inside the faithful-enough tensor representation: a
relation is expanded into generator words, each word is mapped to the exact
operator it induces, and the two sides are compared coefficient by
coefficient.  The representation factors through the defining relations, so
a failure here falsifies a transcription, never the model.
"""

from __future__ import annotations

import math
import random

from . import laurent, tensor
from .laurent import ONE, VTPoly, mono


# -- Cartan datum --------------------------------------------------------------

def pairing(n, i, j):
    """<i, j>: the (i, j) entry of the pairing matrix (1-based)."""
    return (1 if i == j else 0) - (1 if i == j + 1 else 0)


def symmetric_dot(n, i, j):
    return pairing(n, i, j) + pairing(n, j, i)


def bracket_form(n, i, j):
    """[i, j] = 2 delta_ij Omega_ii - Omega_ij (so [i,i] = 1 and [j+1,j] = 1)."""
    return (2 if i == j else 0) * pairing(n, i, i) - pairing(n, i, j)


def bracket_bilinear(n, x, y):
    """[x, y] extended bilinearly to integer vectors indexed by 1..n."""
    total = 0
    for a in range(1, n + 1):
        if not x[a - 1]:
            continue
        for b in range(1, n + 1):
            if y[b - 1]:
                total += x[a - 1] * y[b - 1] * bracket_form(n, a, b)
    return total


# -- degrees --------------------------------------------------------------------

def _ev(n, k, val=1):
    return tuple(val if a == k else 0 for a in range(1, n + 1))


def _wvec(n, j):
    """Alternating tail e_j - e_{j+1} + ... +- e_n (the parity-split
    definitions of this vector collapse to one formula once the summands are
    read as signed unit vectors)."""
    return tuple(
        ((-1) ** (k - j) if k >= j else 0) for k in range(1, n + 1)
    )


def sym_degree(sym, n):
    """Bidegree of a generator symbol, a pair of vectors in Z^n."""
    zero = (0,) * n
    kind = sym[0]
    if kind == "E":
        return (_ev(n, sym[1]), zero)
    if kind == "F":
        return (zero, _ev(n, sym[1]))
    w = _wvec(n, sym[1])
    if sym[2] < 0:
        w = tuple(-x for x in w)
    return (w, w)


def word_degree(word, n):
    g1 = [0] * n
    g2 = [0] * n
    for sym in word:
        d1, d2 = sym_degree(sym, n)
        g1 = [a + b for a, b in zip(g1, d1)]
        g2 = [a + b for a, b in zip(g2, d2)]
    return (tuple(g1), tuple(g2))


def bform_prime(n, gamma, eta):
    """[gamma, eta]' = [gamma_2, eta_2] - [gamma_1, eta_1]."""
    return bracket_bilinear(n, gamma[1], eta[1]) - bracket_bilinear(n, gamma[0], eta[0])


# -- the twisted product ----------------------------------------------------------

def star_expand(w1, w2, n):
    """(coeff, word) pairs multiplied with the t^{-[|x|,|y|]'} twist."""
    c1, s1 = w1
    c2, s2 = w2
    tw = -bform_prime(n, word_degree(s1, n), word_degree(s2, n))
    return (c1 * c2 * mono(0, tw), tuple(s1) + tuple(s2))


def star_word(syms, n):
    """Fold a symbol sequence with the twist; returns the scalar prefix."""
    acc = (ONE, ())
    for s in syms:
        acc = star_expand(acc, (ONE, (s,)), n)
    return acc[0]


def exponent_identity_holds(n):
    """[|E_j|,|A_i|]' - [|A_i|,|E_j|]' = -<i,j> over the whole index range."""
    for i in range(1, n + 1):
        for j in range(1, n):
            dE = sym_degree(("E", j), n)
            dA = sym_degree(("A", i, 1), n)
            lhs = bform_prime(n, dE, dA) - bform_prime(n, dA, dE)
            if lhs != -pairing(n, i, j):
                return False
    return True


# -- relation catalogs -------------------------------------------------------------

def E(i):
    return ("E", i)


def F(i):
    return ("F", i)


def A(a, s=1):
    return ("A", a, s)


def B(a, s=1):
    return ("B", a, s)


VMINUS = mono(1, 0) - mono(-1, 0)  # v - v^{-1}


def _star_combo(words, n):
    """[(coeff, syms)] with each word star-folded into a plain word."""
    return [(c * star_word(s, n), s) for c, s in words]


def relation_instances(rel, n, star=False, fold=True):
    """Instances of one relation id as (name, lhs combo, rhs combo) triples.

    Combos are lists of (VTPoly, word); with star=True the catalog is the
    starred one, whose words are star-products.  fold=True rewrites those
    star-words into plain products by inserting the twist monomials (what
    the operator checks need); fold=False keeps the written coefficients
    (what the t=1 syntactic comparison is about).
    """
    out = []

    def emit(name, lhs, rhs):
        if star and fold:
            lhs = _star_combo(lhs, n)
            rhs = _star_combo(rhs, n)
        out.append((name, lhs, rhs))

    tag = "R*" if star else "R"
    if rel == "R1":
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                emit("%s1 AA %d,%d" % (tag, a, b), [(ONE, (A(a), A(b)))], [(ONE, (A(b), A(a)))])
                emit("%s1 AB %d,%d" % (tag, a, b), [(ONE, (A(a), B(b)))], [(ONE, (B(b), A(a)))])
                emit("%s1 BB %d,%d" % (tag, a, b), [(ONE, (B(a), B(b)))], [(ONE, (B(b), B(a)))])
            emit("%s1 inv %d" % (tag, a), [(ONE, (A(a), A(a, -1)))], [(ONE, ())])
            emit("%s1 invB %d" % (tag, a), [(ONE, (B(a), B(a, -1)))], [(ONE, ())])
        return out
    if rel == "R2":
        for i in range(1, n + 1):
            for j in range(1, n):
                br = pairing(n, i, j)
                tE = mono(br, 0) if star else mono(br, br)
                tB = mono(-br, 0) if star else mono(-br, br)
                tAF = mono(-br, 0) if star else mono(-br, -br)
                tBF = mono(br, 0) if star else mono(br, -br)
                emit("%s2 AE %d,%d" % (tag, i, j), [(ONE, (A(i), E(j), A(i, -1)))], [(tE, (E(j),))])
                emit("%s2 BE %d,%d" % (tag, i, j), [(ONE, (B(i), E(j), B(i, -1)))], [(tB, (E(j),))])
                emit("%s2 AF %d,%d" % (tag, i, j), [(ONE, (A(i), F(j), A(i, -1)))], [(tAF, (F(j),))])
                emit("%s2 BF %d,%d" % (tag, i, j), [(ONE, (B(i), F(j), B(i, -1)))], [(tBF, (F(j),))])
        return out
    if rel == "R3":
        for i in range(1, n):
            for j in range(1, n):
                lhs = [(VMINUS, (E(i), F(j))), (-VMINUS, (F(j), E(i)))]
                rhs = []
                if i == j:
                    rhs = [(ONE, (A(i), B(i + 1))), (-ONE, (B(i), A(i + 1)))]
                emit("%s3 %d,%d" % (tag, i, j), lhs, rhs)
        return out
    if rel == "R4":
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                aij = symmetric_dot(n, i, j)
                top = 1 - aij
                for name, X in (("E", E), ("F", F)):
                    lhs = []
                    for p in range(top + 1):
                        pp = top - p
                        sign = 1 if p % 2 == 0 else -1
                        if star:
                            coeff = laurent.vbinom(top, p) * sign
                        else:
                            texp = -p * (pp - pairing(n, i, j) + pairing(n, j, i))
                            coeff = laurent.vtbinom(top, p) * mono(0, texp) * sign
                        # plain E words read E_i^pp E_j E_i^p; the others E_i^p E_j E_i^pp
                        a, b = (pp, p) if name == "E" and not star else (p, pp)
                        lhs.append((coeff, tuple([X(i)] * a + [X(j)] + [X(i)] * b)))
                    emit("%s4 %s %d,%d" % (tag, name, i, j), lhs, [])
        return out
    raise ValueError("unknown relation id %r" % (rel,))


def verify_relation(rel, n, d, star=False):
    """Check one relation catalog as exact operator identities."""
    results = []
    for name, lhs, rhs in relation_instances(rel, n, star=star):
        ok = tensor.op_eq(tensor.op_combo(lhs, n, d), tensor.op_combo(rhs, n, d))
        results.append((name, ok))
    return results


def verify_all(n, d, star=False):
    out = []
    for rel in ("R1", "R2", "R3", "R4"):
        out.extend(verify_relation(rel, n, d, star=star))
    return out


# -- t = 1 specialization ------------------------------------------------------------

def _subst_t1(p):
    out = {}
    for (a, b), x in p.c.items():
        out[(a, 0)] = out.get((a, 0), 0) + x
    return VTPoly(out)


def _scheme(instances):
    """Map each relation instance to {word: coefficient} with rhs negated."""
    schemes = {}
    for name, lhs, rhs in instances:
        m = {}
        for c, w in lhs:
            m[w] = m.get(w, laurent.ZERO) + c
        for c, w in rhs:
            m[w] = m.get(w, laurent.ZERO) - c
        schemes[name.split(" ", 1)[1]] = {w: c for w, c in m.items() if c}
    return schemes


def t1_specialization_check(n):
    """The t=1 coefficient schemes of R1-R4 match the starred catalog.

    Matching is syntactic on {word: coefficient} maps, up to one global sign
    per instance (the starred Serre sums enumerate p in the mirror order).
    Returns a list of (instance, ok).
    """
    results = []
    for rel in ("R1", "R2", "R3", "R4"):
        plain = _scheme(relation_instances(rel, n, star=False))
        starred = _scheme(relation_instances(rel, n, star=True, fold=False))
        for key in sorted(plain):
            a = {w: _subst_t1(c) for w, c in plain[key].items()}
            a = {w: c for w, c in a.items() if c}
            b = starred.get(key, {})
            neg = {w: -c for w, c in b.items()}
            results.append(("%s %s" % (rel, key), a == b or a == neg))
    return results


# -- Hopf structure ---------------------------------------------------------------------

def counit(sym):
    return laurent.ZERO if sym[0] in ("E", "F") else ONE


def antipode(sym, printed=False):
    """S on a generator, as a combo.

    printed=True selects the alternate grouplike normalization (inverse-free
    factors); it fails the antipode axiom on the model and exists only for
    the expected-fail regression."""
    kind = sym[0]
    if kind == "E":
        i = sym[1]
        if printed:
            return [(-ONE, (sym, ("B", i, 1), ("A", i + 1, 1)))]
        return [(-ONE, (sym, ("A", i, -1), ("B", i + 1, -1)))]
    if kind == "F":
        i = sym[1]
        if printed:
            return [(-ONE, (("A", i, 1), ("B", i + 1, 1), sym))]
        return [(-ONE, (("B", i, -1), ("A", i + 1, -1), sym))]
    return [(ONE, ((kind, sym[1], -sym[2]),))]


def hopf_checks(n, d, printed_antipode=False):
    """Coassociativity, counit and antipode axioms on every generator.

    Counit and antipode run as operator identities on V^{tensor d};
    coassociativity compares the two leg-triple expansions on every split
    d1 + d2 + d3 = d.
    """
    results = []
    for g in tensor.gens(n):
        legs = tensor.coproduct_legs(g)
        for d1 in range(d + 1):
            for d2 in range(d - d1 + 1):
                split = (d1, d2, d - d1 - d2)
                left = {}
                right = {}
                for l, r in legs:
                    for l1, l2 in tensor.coproduct_word(l):
                        tensor.op_add_into(left, tensor.tensor_word_op((l1, l2, r), n, split))
                    for r1, r2 in tensor.coproduct_word(r):
                        tensor.op_add_into(right, tensor.tensor_word_op((l, r1, r2), n, split))
                results.append(("coassoc %r %d+%d+%d" % ((g,) + split), tensor.op_eq(left, right)))
        # (eps x id) Delta(g) = g = (id x eps) Delta(g), and
        # m(S x id) Delta(g) = eps(g) 1 = m(id x S) Delta(g)
        g_op = tensor.op_sym(g, n, d)
        unit = tensor.op_combo([(counit(g), ())], n, d)
        sides = [
            ("counit-left", [(_word_counit(l), r) for l, r in legs], g_op),
            ("counit-right", [(_word_counit(r), l) for l, r in legs], g_op),
            ("antipode-left", [(c, w + tuple(r)) for l, r in legs
                               for c, w in _word_antipode(l, printed_antipode)], unit),
            ("antipode-right", [(c, tuple(l) + w) for l, r in legs
                                for c, w in _word_antipode(r, printed_antipode)], unit),
        ]
        for name, combo, want in sides:
            results.append(("%s %r" % (name, g), tensor.op_eq(tensor.op_combo(combo, n, d), want)))
    return results


def _word_counit(word):
    """The counit of a word: the product of its generators' counits."""
    return math.prod(map(counit, word), start=ONE)


def _word_antipode(word, printed):
    """S extended as an anti-homomorphism to a word; a combo list."""
    combos = [(ONE, ())]
    for sym in reversed(word):
        combos = [
            (c1 * c2, w1 + w2)
            for c1, w1 in combos
            for c2, w2 in antipode(sym, printed=printed)
        ]
    return combos


def star_associativity_sample(n, seed=0):
    rng = random.Random(seed)
    syms = tensor.gens(n)
    for _ in range(100):
        words = [tuple(rng.choice(syms) for _ in range(rng.randint(0, 3))) for _ in range(3)]
        x, y, z = ((ONE, w) for w in words)
        a = star_expand(star_expand(x, y, n), z, n)
        b = star_expand(x, star_expand(y, z, n), n)
        if a != b:
            return False
    return True
