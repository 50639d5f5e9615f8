"""Parity projectors cutting the algebra at a step index m.

The plain (tilde) projectors split the tensor basis by the parity of the
number of entries <= m; the refined (hat) family additionally demands that
no entry equal m + 1 (the step condition V_m = V_{m+1}), with a third
projector soaking up the rest.  Relation catalogs are checked as exact
operator identities; the two-sided delta-rule form of the hat catalog's
commutation relations is false at one special index per rule, so the
canonical catalog keeps their one-sided content and the literal two-sided
forms stay addressable as expected-fail entries.

Every identity is read at the sorted sequences s_mu (tensor.combo_columns):
each projector J is a sum of content projectors, which commute with every
T_j, so J X - X J' vanishes once it does at every s_mu.  There J acts by
its mask on contents: J X keeps the rows of X s_mu whose content J keeps,
and X J' is X s_mu where J' keeps mu, else zero.
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


def j_operator(variant, sign, m, n, d):
    """The diagonal projector as a tensor-space operator: the sum of the
    content projectors of its braced element."""
    return schur.elt_op(j_schur_element(variant, sign, m, n, d), n, d)


def j_schur_element(variant, sign, m, n, d):
    """The projector as a diagonal braced element of the flag algebra."""
    _check_request(variant, sign, m, n)
    keeps = _keeper(variant, m, n, d)
    return {diag(lam): ONE for lam, seq in tensor.sorted_seqs(n, d).items() if sign in keeps(seq)}


def _keeper(variant, m, n, d):
    """The signs whose projectors keep a sequence, as a function of it: read
    off its content, once per composition (none keeps any other content)."""
    signs = SIGNS if variant == "hat" else SIGNS[:2]
    kept = {lam: tuple(s for s in signs if _keep(variant, s, d, sum(lam[:m]), lam[m]))
            for lam in compositions(n, d)}
    return lambda r: kept.get(schur._content(r, n), ())


def _masks(keeps, X):
    """The (column, row) pairs of masks, the signs that keep each, over the
    entries of X given by its columns at the sorted sequences."""
    return {(keeps(seq), keeps(r)) for seq, col in X.items() for r in col}


def _word(keeps, word, n, d):
    return _masks(keeps, tensor.combo_columns([(ONE, word)], n, d))


def _moves(masks, s, o):
    """Does J_s X = X J_o hold, for X by its _masks?  J_s must keep each row
    exactly where J_o keeps its column; the sign None is the zero projector."""
    return all((s in row) == (o in col) for col, row in masks)


def _units(keeps, signs, n, d):
    """Partition of unity and orthogonality as (name, ok) pairs: exactly one
    projector keeps each s_mu (a mask is idempotent)."""
    masks = [row for _, row in _word(keeps, (), n, d)]
    return [("partition of unity", all(len(k) == 1 for k in masks))] + [
        ("orthogonality J%s J%s" % (a, b), all(a == b or not (a in k and b in k) for k in masks))
        for a in signs for b in signs]


def verify_tilde_relations(n, d, m):
    """The plain-projector catalog as operator identities: (name, ok) list.

    The underlying Chevalley/Cartan relations are rechecked alongside (no
    interference), including the catalog's printed Cartan-commutator
    denominator, which fails on the model and is recorded as expect-fail.
    """
    check_cut("the tilde projector", m, n)
    keeps = _keeper("tilde", m, n, d)
    checks = _units(keeps, "+-", n, d)
    checks += [("J commutes with %r" % (sym,), _moves(_word(keeps, (sym,), n, d), "+", "+"))
               for a in range(1, n + 1) for sym in (("A", a, 1), ("B", a, 1))]
    for i in range(1, n):
        Ei, Fi = _word(keeps, (("E", i),), n, d), _word(keeps, (("F", i),), n, d)
        if i == m:
            checks.append(("J+ E_m = E_m J-", _moves(Ei, "+", "-")))
            checks.append(("J- E_m = E_m J+", _moves(Ei, "-", "+")))
            checks.append(("J+ F_m = F_m J-", _moves(Fi, "+", "-")))
        else:
            checks.append(("J+ E_%d commutes" % i, _moves(Ei, "+", "+")))
            checks.append(("J+ F_%d commutes" % i, _moves(Fi, "+", "+")))
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
    keeps = _keeper("hat", m, n, d)
    checks = [("r1 " + name, ok) for name, ok in _units(keeps, SIGNS, n, d)]
    for a in range(1, n + 1):
        for sym in (("A", a, 1), ("B", a, 1)):
            G = _word(keeps, (sym,), n, d)
            checks += [("r1 J%s commutes with %r" % (s, sym), _moves(G, s, s)) for s in SIGNS]
    E, F = ({i: _word(keeps, ((k, i),), n, d) for i in range(1, n)} for k in "EF")
    for i in range(1, n):
        for s in ("+", "-"):
            if i == m:
                checks.append(("r2 E_m J%s = 0" % s, _moves(E[i], None, s)))
                checks.append(("r3 J%s F_m = 0" % s, _moves(F[i], s, None)))
            elif i == m + 1:
                checks.append(("r2 J%s E_{m+1} = 0" % s, _moves(E[i], s, None)))
                checks.append(("r3 F_{m+1} J%s = 0" % s, _moves(F[i], None, s)))
            else:
                checks.append(("r2 J%s E_%d commutes" % (s, i), _moves(E[i], s, s)))
                checks.append(("r3 J%s F_%d commutes" % (s, i), _moves(F[i], s, s)))
    EE = _word(keeps, (("E", m), ("E", m + 1)), n, d)
    FF = _word(keeps, (("F", m + 1), ("F", m)), n, d)
    for s, o in (("+", "-"), ("-", "+")):
        checks += [("r4 J%s E_m E_{m+1}" % s, _moves(EE, s, o)),
                   ("r5 J%s F_{m+1} F_m" % s, _moves(FF, s, o))]
    # r6, r7: J_s X - X J_o = C (J_s - J_o) for X = E_m F_m and C the diagonal
    # cartan_elt at m, and for X = F_{m+1} E_{m+1} and C = -cartan_elt at m + 1.
    # C is diagonal in content, so this is J_s Y = Y J_o for Y = X - C
    Y = []
    for word, i, c in (((("E", m), ("F", m)), m, -ONE), ((("F", m + 1), ("E", m + 1)), m + 1, ONE)):
        C = schur.cartan_elt(i, n, d)
        diagonal = {s: {s: C[diag(mu)]} for mu, s in tensor.sorted_seqs(n, d).items() if diag(mu) in C}
        Y.append(_masks(keeps, tensor.op_add_into(tensor.combo_columns([(ONE, word)], n, d), diagonal, c)))
    for s, o in (("+", "-"), ("-", "+")):
        checks += [("r6 J%s" % s, _moves(Y[0], s, o)), ("r7 J%s" % s, _moves(Y[1], s, o))]
    # the printed two-sided delta rules each fail at the other special index
    for s in ("+", "-"):
        checks.append(("expect-fail printed r2 first i=m+1 J%s" % s, _moves(E[m + 1], s, s)))
        checks.append(("expect-fail printed r2 second i=m J%s" % s, _moves(E[m], s, s)))
    return checks
