"""Descent from (v, t) to (r, s) = (vt, v^{-1}t) along the sign involution.

The involution sends (v, t) to (-v, -t), flips the sign of the raising
generators, and fixes everything else; its fixed field is generated by r and
s.  Fixed elements are exactly those whose coefficients carry even total
degree, and those rewrite exactly over (r, s).  The suite below is the
computational content of the descent statement: the twisted generator set is
fixed, its relations descend coefficient-by-coefficient and still hold, the
tensor basis is fixed pointwise, and the Hecke algebra lands on the familiar
(r, s) presentation.
"""

from __future__ import annotations

import functools

from . import hecke, laurent, tensor
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
    """The CLI's limit that d exceeds in descent_suite's (d!)^2 Hecke products, as text, or None."""
    return "descent guard d<=5 (got d=%d)" % d if d > 5 else None


def descent_suite(n, d):
    """The four-part computable content of the descent statement."""
    from . import uvt

    checks = []
    ops = twisted_generator_ops(n, d)
    # (i) the twisted generator set is fixed
    for name, P in ops.items():
        checks.append(("fixed %r" % (name,), fixed_check(P)))
    # (ii) the presented relations, rewritten for the twisted generators,
    # hold as operators and their coefficients rewrite over (r, s)
    def comp(*Ps):
        return functools.reduce(tensor.op_compose, Ps)

    for i in range(1, n + 1):
        for j in range(1, n):
            br = uvt.pairing(n, i, j)
            coefE = mono(br, br)
            coefF = mono(-br, -br)
            checks.append(("descended R2 A%d E%d" % (i, j), poly_fixed(coefE) and tensor.op_eq(
                comp(ops[("A", i, 1)], ops[("tE", j)], ops[("A", i, -1)]),
                tensor.op_scale(ops[("tE", j)], coefE))))
            checks.append(("descended R2 A%d F%d" % (i, j), poly_fixed(coefF) and tensor.op_eq(
                comp(ops[("A", i, 1)], ops[("F", j)], ops[("A", i, -1)]),
                tensor.op_scale(ops[("F", j)], coefF))))
    rs_minus = mono(1, 1) - mono(-1, 1)  # r - s
    rs_prod = mono(0, 2)                 # rs = t^2
    for i in range(1, n):
        for j in range(1, n):
            comm = tensor.op_sub(comp(ops[("tE", i)], ops[("F", j)]),
                                 comp(ops[("F", j)], ops[("tE", i)]))
            lhs = tensor.op_scale(comm, rs_minus)
            rhs = {}
            if i == j:
                # (r - s) [tE_i, F_i] = rs (A_i B_{i+1} - B_i A_{i+1})
                rhs = tensor.op_scale(
                    tensor.op_sub(comp(ops[("A", i, 1)], ops[("B", i + 1, 1)]),
                                  comp(ops[("B", i, 1)], ops[("A", i + 1, 1)])),
                    rs_prod)
            ok = tensor.op_eq(lhs, rhs) and poly_fixed(rs_minus) and poly_fixed(rs_prod)
            checks.append(("descended R3 %d,%d" % (i, j), ok))
    rp = mono(1, 1)   # r
    sp = mono(-1, 1)  # s
    for i in range(1, n - 1):
        E1, E2 = ops[("tE", i)], ops[("tE", i + 1)]
        serre = tensor.op_add(
            tensor.op_sub(comp(E1, E1, E2), tensor.op_scale(comp(E1, E2, E1), rp + sp)),
            tensor.op_scale(comp(E2, E1, E1), rp * sp))
        checks.append(("descended Serre E %d" % i, tensor.op_eq(serre, {})))
        F1, F2 = ops[("F", i)], ops[("F", i + 1)]
        serreF = tensor.op_add(
            tensor.op_sub(tensor.op_scale(comp(F1, F1, F2), rp * sp),
                          tensor.op_scale(comp(F1, F2, F1), rp + sp)),
            comp(F2, F1, F1))
        checks.append(("descended Serre F %d" % i, tensor.op_eq(serreF, {})))
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
        ok = True
        for w in hecke.all_perms(dd):
            for u in hecke.all_perms(dd):
                prod = hecke.hecke_mul(hecke.basis(w), hecke.basis(u))
                for c in prod.values():
                    if not poly_fixed(c):
                        ok = False
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
