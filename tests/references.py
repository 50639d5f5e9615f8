"""Exact references that only the tests use."""

import functools

from vtschur import flags, laurent, linalg, schur, tensor, uvt
from vtschur.matrices import co, diag_of, ro, theta_matrices


def frac_rank(rows):
    """Rank over Q of a list of rows (iterables of Fractions or ints)."""
    acc = linalg.IncrementalRank()
    for row in rows:
        acc.add(row)
    return acc.rank


def mod_rank(rows, p):
    """Rank mod p of dense integer rows, by Gaussian elimination in column order."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        inv = pow(m[rank][c], -1, p)
        piv = m[rank] = [x * inv % p for x in m[rank]]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], piv)]
        rank += 1
    return rank


def dense(rows, ncols):
    """Sparse {column: value} rows as dense lists of ncols entries."""
    out = []
    for row in rows:
        out.append([0] * ncols)
        for c, x in row.items():
            out[-1][c] += x
    return out


def rs_to_vt(rp):
    """Substitute r = vt, s = v^{-1}t back into an RSPoly (inverse of laurent.to_rs)."""
    return laurent.VTPoly({(x - y, x + y): c for (x, y), c in rp.c.items()})


def printed_antipode(sym):
    """S with the printed grouplike normalization (inverse-free factors), as
    a combo; it fails the antipode axiom on E and F."""
    i = sym[1]
    if sym[0] == "E":
        return [(-laurent.ONE, (sym, ("B", i, 1), ("A", i + 1, 1)))]
    if sym[0] == "F":
        return [(-laurent.ONE, (("A", i, 1), ("B", i + 1, 1), sym))]
    return uvt.antipode(sym)


def printed_word_antipode(word):
    """printed_antipode extended as an anti-homomorphism to a word."""
    combos = [(laurent.ONE, ())]
    for sym in reversed(word):
        combos = [(c1 * c2, w1 + w2) for c1, w1 in combos for c2, w2 in printed_antipode(sym)]
    return combos


def classify_pairs(left_flags, right_flags, p):
    """Group all pairs by orbit matrix; keeps up to two representatives each."""
    types = {}
    for V in left_flags:
        for W in right_flags:
            M = flags.orbit_matrix(V, W, p)
            reps = types.setdefault(M, [])
            if len(reps) < 2:
                reps.append((V, W))
    return types


def poly_mul(p, q):
    """The product of two VTPolys by the plain double loop over their terms."""
    out = {}
    for (a1, b1), x1 in p.c.items():
        for (a2, b2), x2 in q.c.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + x1 * x2
    return laurent.VTPoly(out)


def interior_part(x, window):
    """The terms of x on matrices whose diagonal keeps the window's margin."""
    bound = window.W - window.margin
    return {M: c for M, c in x.items() if all(abs(M[i][i]) <= bound for i in range(len(M)))}


def chev_mul_per_term(x, y, stab=False):
    """schur.chev_mul one left term at a time: the sum over the terms c {B}
    of x of c times lmul_braced(B, the terms of y with row sums co(B))."""
    out = {}
    for B, c in x.items():
        sub = {A: cA for A, cA in y.items() if ro(A) == co(B)}
        if sub:
            laurent.elt_add_into(out, schur.lmul_braced(B, sub, stab), c)
    return out


def rref_dense(rows, p):
    """flags.rref by dense Gauss-Jordan elimination in column order."""
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return ()
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, nrows) if m[i][c] % p), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r])


def vbinom(n, k):
    """The balanced v-binomial, by exact division of vint quantum integers."""
    if k < 0 or k > n:
        return laurent.VTPoly()
    out = laurent.ONE
    for i in range(1, k + 1):
        out = laurent.exact_div(out * laurent.vint(n + 1 - i), laurent.vint(i))
    return out


def vtbinom(n, k):
    """The two-parameter binomial vtfact(n) / (vtfact(k) vtfact(n-k))."""
    if k < 0 or k > n:
        return laurent.VTPoly()
    return laurent.exact_div(laurent.vtfact(n), laurent.vtfact(k) * laurent.vtfact(n - k))


def height_closed_form(A):
    """height in closed form: an entry k = |i - j| steps off the
    diagonal lies in k(k + 1)/2 of the corners."""
    return sum(m * abs(i - j) * (abs(i - j) + 1) // 2
               for i, row in enumerate(A) for j, m in enumerate(row))


# -- the operator model by whole operators, as it was before the column build ----

@functools.lru_cache(maxsize=64)
def _power_coefficients(kind, h, r, n, d):
    """E_h^r (F_h^r) as a braced element, through expand_word."""
    return schur.expand_word([(kind, h)] * r, n, d)


def chevalley_column(A, n, d):
    """The column of schur.braced_op at s_mu, mu = co(A), for a non-diagonal
    Chevalley-shaped A, as it was built before its closed form: E_h^r
    (F_h^r) applied to s_mu through op_sym, divided by the coefficient of
    {A} in that power."""
    kind, h, r = schur.chev_shape(A)
    cA = _power_coefficients(kind, h, r, n, d)[A]
    col = {tuple(b + 1 for b, m in enumerate(co(A)) for _ in range(m)): laurent.ONE}
    for _ in range(r):
        col = tensor.op_apply(tensor.op_sym((kind, h), n, d), col)
    return {s: laurent.exact_div(c, cA) for s, c in col.items()}


@functools.lru_cache(maxsize=4096)
def braced_op(A, n, d):
    """schur.braced_op by whole operators: a Chevalley A from the operator
    of the word E_h^r (F_h^r) on the columns of content co(A), divided by the
    coefficient of {A} in that power; any other non-diagonal A from the
    composed operators of its triangular factors, minus the operators of the
    lower terms of triangular_product(A)."""
    shape = schur.chev_shape(A)
    if shape is not None and shape[0] == "diag":
        return schur.content_projector(diag_of(A), n, d)
    if shape is not None:
        kind, h, r = shape
        cA = _power_coefficients(kind, h, r, n, d)[A]
        P = tensor.op_word([(kind, h)] * r, n, d)
        return {rr: {ss: laurent.exact_div(c, cA) for ss, c in col.items()}
                for rr, col in P.items() if schur._content(rr, n) == co(A)}
    expansion, factors = schur.triangular_product(A)
    P = tensor.op_identity(n, d)
    for B in factors:
        P = tensor.op_compose(P, braced_op(B, n, d))
    for M, c in expansion.items():
        if M != A:
            tensor.op_add_into(P, braced_op(M, n, d), -c)
    return P


def height(A):
    """The total of the corner sums that schur.preceq compares.

    If prec(B, A), no corner sum of B exceeds that of A, and one is
    smaller: the corner sums fix the off-diagonal entries by
    inclusion-exclusion and the row sums then fix the diagonal, so equal
    sums would force B == A.  Hence prec(B, A) implies height(B) < height(A).
    """
    return sum(schur._corners(A))


def peel_order(n, d):
    """((A, s_col, s_row), ...) over theta_matrices(n, d) by decreasing
    height, ties in enumeration order; (s_row, s_col) is one pair of
    sequences of position matrix A."""
    return tuple(
        (A,
         tuple(j + 1 for row in A for j, m in enumerate(row) for _ in range(m)),
         tuple(i + 1 for i, row in enumerate(A) for m in row for _ in range(m)))
        for A in sorted(theta_matrices(n, d), key=height, reverse=True))


def op_to_elt(P, n, d):
    """Re-express an operator in the braced basis by unitriangularity.

    braced_op(A) has its entries at pairs of sequences whose position
    matrix B has preceq(B, A), and a unit monomial at the pairs of position
    A.  Walking the matrices by decreasing height, the residual at one
    position-A pair is c_A times that unit; the term is peeled off, and what
    is left at the end must be zero (InexactDivision otherwise)."""
    out = {}
    rest = tensor.op_add_into({}, P)
    for A, s_col, s_row in peel_order(n, d):
        entry = rest.get(s_col, {}).get(s_row)
        if entry:
            op = braced_op(A, n, d)
            out[A] = c = laurent.exact_div(entry, op[s_col][s_row])
            tensor.op_add_into(rest, op, -c)
    if rest:
        raise laurent.InexactDivision("operator is not in the image of the algebra")
    return out


# -- the relation catalogs and Hopf axioms by whole operators ---------------------
# as they were before the comparisons moved to the columns at the sorted
# sequences (tensor.combo_columns)

def op_combo(combo, n, d):
    """The whole operator of a linear combination [(poly, word), ...]."""
    out = {}
    for poly, word in combo:
        if poly:
            tensor.op_add_into(out, tensor.op_word(word, n, d), poly)
    return out


def verify_all_whole(n, d, star=False):
    """uvt.verify_all with both sides of each instance built as whole operators."""
    return [(name, tensor.op_eq(op_combo(lhs, n, d), op_combo(rhs, n, d)))
            for rel in ("R1", "R2", "R3", "R4")
            for name, lhs, rhs in uvt.relation_instances(rel, n, star=star)]


def hopf_checks_whole_sides(n, d):
    """uvt.hopf_checks by whole operators: on each split, every distinct leg
    triple's operator is built once, the (Delta x id) Delta(g) and
    (id x Delta) Delta(g) expansions are each summed, and the two sums are
    compared with op_eq; the counit and antipode sides are whole operators."""
    results = []
    for g in tensor.gens(n):
        legs = tensor.coproduct_legs(g)
        for d1 in range(d + 1):
            for d2 in range(d - d1 + 1):
                split = (d1, d2, d - d1 - d2)
                built = {}

                def leg_op(*words):
                    key = tuple(map(tuple, words))
                    if key not in built:
                        built[key] = tensor.tensor_word_op(key, n, split)
                    return built[key]

                left = {}
                right = {}
                for l, r in legs:
                    for l1, l2 in tensor.coproduct_word(l):
                        tensor.op_add_into(left, leg_op(l1, l2, r))
                    for r1, r2 in tensor.coproduct_word(r):
                        tensor.op_add_into(right, leg_op(l, r1, r2))
                results.append(("coassoc %r %d+%d+%d" % ((g,) + split), tensor.op_eq(left, right)))
        g_op = tensor.op_sym(g, n, d)
        unit = op_combo([(uvt.counit(g), ())], n, d)
        sides = [
            ("counit-left", [(uvt._word_counit(l), r) for l, r in legs], g_op),
            ("counit-right", [(uvt._word_counit(r), l) for l, r in legs], g_op),
            ("antipode-left", [(c, w + tuple(r)) for l, r in legs
                               for c, w in uvt._word_antipode(l)], unit),
            ("antipode-right", [(c, tuple(l) + w) for l, r in legs
                                for c, w in uvt._word_antipode(r)], unit),
        ]
        for name, combo, want in sides:
            results.append(("%s %r" % (name, g), tensor.op_eq(op_combo(combo, n, d), want)))
    return results
