"""Descent from (v, t) to (r, s) = (vt, v^{-1}t) along the sign involution.

The involution sends (v, t) to (-v, -t), flips the sign of the raising
generators, and fixes everything else; its fixed field is generated by r and
s.  Fixed elements are exactly those whose coefficients carry even total
degree, and those rewrite exactly over (r, s).  The suite below is the
computational content of the descent statement: the twisted generator set is
fixed, its relations descend coefficient-by-coefficient and still hold, the
tensor basis is fixed pointwise, and the Hecke algebra lands on the familiar
(r, s) presentation.

The relations are read off uvt.relation_instances, the one transcription of
R1-R4.  Substituting E = t^{-1} tE turns a word with k E's and coefficient c
into c t^{-k} on the twisted word.  When every rewritten coefficient has one
parity of a + b, one power of t makes them all fixed, so the relation
descends to one among the twisted generators over (r, s); multiplying by a
unit does not change whether it holds, which the columns at the sorted
sequences decide (tensor.combo_columns).

The Hecke structure constants descend once the d!(d-1) generator rows
T_w T_i do: the fixed polynomials form a subring, and every T_w T_u is T_w
times generators along a reduced word of u, each step combining the rows'
coefficients by sums and products.  The rows are among the products, so the
check is exact.
"""

from __future__ import annotations

from . import hecke, laurent, tensor, uvt
from .laurent import ONE, VTPoly, mono


def sigma_poly(p):
    """Coefficient action of the involution: v^a t^b picks up (-1)^{a+b}."""
    return VTPoly({(a, b): c * (-1 if (a + b) % 2 else 1) for (a, b), c in p.c.items()})


def sigma_elt(x):
    return {r: sigma_poly(c) for r, c in x.items()}


def gen_sign(sym):
    return -1 if sym[0] == "E" else 1


def poly_fixed(p):
    return all((a + b) % 2 == 0 for (a, b) in p.c)


def fixed_check(obj):
    """Is the object fixed by the involution?

    Accepts a bare polynomial, a sparse element {key: poly}, or an operator
    {key: {key: poly}}; the basis is fixed pointwise, so only coefficients
    matter.
    """
    if isinstance(obj, VTPoly):
        return poly_fixed(obj)
    polys = []
    for val in obj.values():
        if isinstance(val, VTPoly):
            polys.append(val)
        else:
            polys.extend(val.values())
    return all(poly_fixed(c) for c in polys)


def descend_elt(x):
    return {r: laurent.to_rs(c) for r, c in x.items()}


def descend_op(P):
    return {r: descend_elt(col) for r, col in P.items()}


def equivariance_check(n, d):
    """sigma(g . x) = sigma(g) . sigma(x) on every generator and basis vector,
    and likewise for the right Hecke action with sigma(T_j) = T_j."""
    def sigma_op(P):
        return {r: sigma_elt(col) for r, col in P.items()}

    checks = []
    for g in tensor.gens(n):
        G = tensor.op_sym(g, n, d)
        checks.append(("equivariance %r" % (g,),
                       tensor.op_eq(sigma_op(G), tensor.op_scale(G, ONE * gen_sign(g)))))
    for j in range(1, d):
        Tj = tensor.op_T(j, n, d)
        checks.append(("equivariance T_%d" % j, tensor.op_eq(sigma_op(Tj), Tj)))
    return checks


def twisted_generator_ops(n, d):
    """The fixed generator set: t E_i, F_i, and the Cartan family."""
    out = {}
    for i in range(1, n):
        out[("tE", i)] = tensor.op_scale(tensor.op_sym(("E", i), n, d), laurent.T)
        out[("F", i)] = tensor.op_sym(("F", i), n, d)
    for a in range(1, n + 1):
        for s in (1, -1):
            out[("A", a, s)] = tensor.op_sym(("A", a, s), n, d)
            out[("B", a, s)] = tensor.op_sym(("B", a, s), n, d)
    return out


def descent_guard(d):
    """The CLI's limit that d exceeds in descent_suite's d!(d-1) Hecke generator rows, as text, or None."""
    return "descent guard d<=8 (got d=%d)" % d if d > 8 else None


def _descended_name(name):
    """The descent check of a uvt.relation_instances instance, or None for
    one it does not read: R2 AE and AF, R3, and R4 at j = i + 1 (Serre)."""
    rel, *kind, pair = name.split()
    i, j = map(int, pair.split(","))
    if rel == "R3":
        return "descended R3 %s" % pair
    if rel == "R2" and kind[0] in ("AE", "AF"):
        return "descended R2 %s%d %s%d" % (kind[0][0], i, kind[0][1], j)
    if rel == "R4" and j == i + 1:
        return "descended Serre %s %d" % (kind[0], i)
    return None


def _twisted_parities(combo):
    """The parities of a + b over the monomials v^a t^b of a combination's
    coefficients once each word's k E's are written as t^{-1} tE: c t^{-k}."""
    return {(a + b - sum(sym[0] == "E" for sym in word)) % 2 for c, word in combo for a, b in c.c}


def descent_suite(n, d):
    """The four-part computable content of the descent statement."""
    checks = []
    ops = twisted_generator_ops(n, d)
    # (i) the twisted generator set is fixed
    for name, P in ops.items():
        checks.append(("fixed %r" % (name,), fixed_check(P)))
    # (ii) the presented relations, rewritten for the twisted generators,
    # hold and their coefficients rewrite over (r, s) up to one power of t
    for rel in ("R2", "R3", "R4"):
        for name, lhs, rhs in uvt.relation_instances(rel, n):
            name = _descended_name(name)
            if name is not None:
                holds = tensor.op_eq(tensor.combo_columns(lhs, n, d), tensor.combo_columns(rhs, n, d))
                checks.append((name, holds and len(_twisted_parities(lhs + rhs)) == 1))
    # every twisted generator operator itself rewrites over (r, s)
    for name, P in ops.items():
        try:
            descend_op(P)
            checks.append(("rewrites %r" % (name,), True))
        except laurent.NotDescendable:
            checks.append(("rewrites %r" % (name,), False))
    # (iii) the fixed subspace of tensor space is the full (r, s)-span
    basis_fixed = all(fixed_check({r: ONE}) for r in tensor.all_seqs(n, d))
    checks.append(("fixed tensor basis of dimension %d" % n ** d, basis_fixed))
    # (iv) the Hecke algebra descends onto the (r, s) presentation
    for dd in range(2, max(d, 2) + 1):
        elt, rs = hecke.quadratic_certificate(1, dd)
        checks.append(("hecke quadratic d=%d" % dd, not elt
                       and rs["T"] == [((0, 1), 1), ((1, 0), -1)]
                       and rs["1"] == [((1, 1), -1)]))
        ok = all(poly_fixed(c) for w in hecke.all_perms(dd) for i in range(1, dd)
                 for c in hecke.mul_Ti(hecke.basis(w), i).values())
        checks.append(("hecke structure constants descend d=%d" % dd, ok))
        checks.append(("hecke braid/commute d=%d" % dd,
                       all(okk for _, okk in hecke.verify_hecke(dd))))
    return checks


def sigma_involutive(n, d, seed=13):
    import random

    rng = random.Random(seed)
    seqs = tensor.all_seqs(n, d)
    for _ in range(50):
        x = {rng.choice(seqs): mono(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-4, 4))
             for _ in range(3)}
        if sigma_elt(sigma_elt(x)) != x:
            return False
    return True
