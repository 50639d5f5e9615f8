"""Parity projectors cutting the algebra at a step index m.

The plain (tilde) projectors split the tensor basis by the parity of the
number of entries <= m; the refined (hat) family additionally demands that
no entry equal m + 1 (the step condition V_m = V_{m+1}), with a third
projector soaking up the rest.  Relation catalogs are checked as exact
operator identities; the two-sided delta-rule form of the hat catalog's
commutation relations is false at one special index per rule, so the
canonical catalog keeps their one-sided content and the literal two-sided
forms stay addressable as expected-fail entries.
"""

from __future__ import annotations

from . import schur, tensor, uvt
from .laurent import ONE, T
from .matrices import compositions, diag

VARIANTS = ("tilde", "hat")
SIGNS = ("+", "-", "0")


def check_cut(name, m, n, room=1):
    """ValueError unless 1 <= m <= n - room: room 1 for the projectors and the
    plain catalog, 2 for the refined one, which also reads E_{m+1}."""
    top = n - room
    if top < 1:  # no m at all: the bound is on n
        raise ValueError("%s needs n >= %d, got n=%d" % (name, room + 1, n))
    if not 1 <= m <= top:
        raise ValueError("%s needs 1 <= m <= %d, got m=%d" % (name, top, m))


def _check_request(variant, sign, m, n):
    """ValueError unless (variant, sign, m) names one of the projectors at n."""
    if variant not in VARIANTS:
        raise ValueError("variant must be tilde or hat")
    if sign not in SIGNS or (sign == "0" and variant != "hat"):
        raise ValueError("sign must be +, - or (hat only) 0")
    check_cut("the %s projector" % variant, m, n)


def _keep(variant, sign, d, low, mid):
    """Does the projector keep a basis vector with low entries <= m and mid
    entries equal to m + 1?"""
    if variant == "hat":
        if sign == "0":
            return mid > 0
        if mid:
            return False
    return low % 2 == (d if sign == "+" else d - 1) % 2


def _moves(P, X, Q):
    """Does P X = X Q hold as operators?"""
    return tensor.op_eq(tensor.op_compose(P, X), tensor.op_compose(X, Q))


def j_operator(variant, sign, m, n, d):
    """The diagonal projector as a tensor-space operator."""
    _check_request(variant, sign, m, n)
    return {
        r: {r: ONE}
        for r in tensor.all_seqs(n, d)
        if _keep(variant, sign, d, sum(x <= m for x in r), r.count(m + 1))
    }


def j_schur_element(variant, sign, m, n, d):
    """The projector as a diagonal braced element of the flag algebra."""
    _check_request(variant, sign, m, n)
    return {diag(lam): ONE for lam in compositions(n, d)
            if _keep(variant, sign, d, sum(lam[:m]), lam[m])}


def verify_tilde_relations(n, d, m):
    """The plain-projector catalog as operator identities: (name, ok) list.

    The underlying Chevalley/Cartan relations are rechecked alongside (no
    interference), including the catalog's printed Cartan-commutator
    denominator, which fails on the model and is recorded as expect-fail.
    Those word identities are read at the sorted sequences
    (tensor.combo_columns), the projector identities on whole operators.
    """
    checks = []
    Jp = j_operator("tilde", "+", m, n, d)
    Jm = j_operator("tilde", "-", m, n, d)
    ident = tensor.op_identity(n, d)
    checks.append(("partition of unity", tensor.op_eq(tensor.op_add(Jp, Jm), ident)))
    for s1, P in (("+", Jp), ("-", Jm)):
        for s2, Q in (("+", Jp), ("-", Jm)):
            want = P if s1 == s2 else {}
            checks.append(("orthogonality J%s J%s" % (s1, s2),
                           tensor.op_eq(tensor.op_compose(P, Q), want)))
    for a in range(1, n + 1):
        for sym in (("A", a, 1), ("B", a, 1)):
            G = tensor.op_sym(sym, n, d)
            checks.append(("J commutes with %r" % (sym,), _moves(Jp, G, Jp)))
    for i in range(1, n):
        Ei = tensor.op_sym(("E", i), n, d)
        Fi = tensor.op_sym(("F", i), n, d)
        if i == m:
            checks.append(("J+ E_m = E_m J-", _moves(Jp, Ei, Jm)))
            checks.append(("J- E_m = E_m J+", _moves(Jm, Ei, Jp)))
            checks.append(("J+ F_m = F_m J-", _moves(Jp, Fi, Jm)))
        else:
            checks.append(("J+ E_%d commutes" % i, _moves(Jp, Ei, Jp)))
            checks.append(("J+ F_%d commutes" % i, _moves(Jp, Fi, Jp)))
    for rel in ("R1", "R2", "R3", "R4"):
        for name, ok in uvt.verify_relation(rel, n, d):
            checks.append(("base " + name, ok))
    # the catalog's Cartan commutator is printed over vt - v^{-1}t; only
    # the v - v^{-1} normalization of R3 holds on the model.  R3 has a right
    # side exactly at i = j.
    cartan = [(lhs, rhs) for _, lhs, rhs in uvt.relation_instances("R3", n) if rhs]
    for i, (lhs, rhs) in enumerate(cartan, 1):
        model, num = tensor.combo_columns(lhs, n, d), tensor.combo_columns(rhs, n, d)
        checks.append(("expect-fail printed cartan denominator i=%d" % i,
                       tensor.op_eq(tensor.op_scale(model, T), num)))
        checks.append(("model cartan denominator i=%d" % i, tensor.op_eq(model, num)))
    return checks


def verify_hat_relations(n, d, m):
    """The refined-projector catalog (r1)-(r7) as operator identities."""
    check_cut("jparity-hat", m, n, room=2)
    checks = []
    J = {s: j_operator("hat", s, m, n, d) for s in SIGNS}
    ident = tensor.op_identity(n, d)
    total = tensor.op_add(tensor.op_add(J["+"], J["0"]), J["-"])
    checks.append(("r1 partition of unity", tensor.op_eq(total, ident)))
    for s1 in SIGNS:
        for s2 in SIGNS:
            want = J[s1] if s1 == s2 else {}
            checks.append(("r1 orthogonality J%s J%s" % (s1, s2),
                           tensor.op_eq(tensor.op_compose(J[s1], J[s2]), want)))
    for a in range(1, n + 1):
        for sym in (("A", a, 1), ("B", a, 1)):
            G = tensor.op_sym(sym, n, d)
            for s in SIGNS:
                checks.append(("r1 J%s commutes with %r" % (s, sym), _moves(J[s], G, J[s])))
    zero = {}
    for i in range(1, n):
        Ei = tensor.op_sym(("E", i), n, d)
        Fi = tensor.op_sym(("F", i), n, d)
        for s in ("+", "-"):
            if i == m:
                checks.append(("r2 E_m J%s = 0" % s, tensor.op_eq(tensor.op_compose(Ei, J[s]), zero)))
                checks.append(("r3 J%s F_m = 0" % s, tensor.op_eq(tensor.op_compose(J[s], Fi), zero)))
            elif i == m + 1:
                checks.append(("r2 J%s E_{m+1} = 0" % s, tensor.op_eq(tensor.op_compose(J[s], Ei), zero)))
                checks.append(("r3 F_{m+1} J%s = 0" % s, tensor.op_eq(tensor.op_compose(Fi, J[s]), zero)))
            else:
                checks.append(("r2 J%s E_%d commutes" % (s, i), _moves(J[s], Ei, J[s])))
                checks.append(("r3 J%s F_%d commutes" % (s, i), _moves(J[s], Fi, J[s])))
    Em = tensor.op_sym(("E", m), n, d)
    Em1 = tensor.op_sym(("E", m + 1), n, d)
    Fm = tensor.op_sym(("F", m), n, d)
    Fm1 = tensor.op_sym(("F", m + 1), n, d)
    EmEm1 = tensor.op_compose(Em, Em1)
    Fm1Fm = tensor.op_compose(Fm1, Fm)
    for s, o in (("+", "-"), ("-", "+")):
        checks.append(("r4 J%s E_m E_{m+1}" % s, _moves(J[s], EmEm1, J[o])))
        checks.append(("r5 J%s F_{m+1} F_m" % s, _moves(J[s], Fm1Fm, J[o])))
    EmFm = tensor.op_compose(Em, Fm)
    Fm1Em1 = tensor.op_compose(Fm1, Em1)
    # diag (A_i B_{i+1} - B_i A_{i+1})/(v - v^{-1}) at i = m, and negated at m + 1
    quot_m = schur.elt_op(schur.cartan_elt(m, n, d), n, d)
    quot_m1 = tensor.op_scale(schur.elt_op(schur.cartan_elt(m + 1, n, d), n, d), -ONE)
    for s, o in (("+", "-"), ("-", "+")):
        dj = tensor.op_sub(J[s], J[o])
        lhs = tensor.op_sub(tensor.op_compose(J[s], EmFm), tensor.op_compose(EmFm, J[o]))
        checks.append(("r6 J%s" % s, tensor.op_eq(lhs, tensor.op_compose(quot_m, dj))))
        lhs7 = tensor.op_sub(tensor.op_compose(J[s], Fm1Em1), tensor.op_compose(Fm1Em1, J[o]))
        checks.append(("r7 J%s" % s, tensor.op_eq(lhs7, tensor.op_compose(quot_m1, dj))))
    # the printed two-sided delta rules each fail at the other special index
    for s in ("+", "-"):
        checks.append(("expect-fail printed r2 first i=m+1 J%s" % s, _moves(J[s], Em1, J[s])))
        checks.append(("expect-fail printed r2 second i=m J%s" % s, _moves(J[s], Em, J[s])))
    return checks
