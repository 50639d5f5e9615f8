"""The flag convolution algebra in its rescaled orbit basis.

Elements are dicts {theta matrix: VTPoly} over the braced basis
{A} = v^{-m} t^{m} e_A with m = d(A) - r(A); the e-basis differs by that
monomial and is only used when talking to the counting oracle.  Products are
driven by the closed-form rule for a left factor whose matrix is diagonal
plus r E_{h,h+1} (or r E_{h+1,h}); general products go through the faithful
tensor-space operator model (n >= d).
"""

from __future__ import annotations

from functools import lru_cache

from . import laurent, tensor
from .laurent import clean, elt_add, elt_scale, mono
from .matrices import (
    add as mat_add, co, compositions, diag, diag_of, dminusr, ro,
    theta_matrices, unit as mat_unit,
)
from .uvt import A as Ap, B as Bp, E, F, pairing

# -- element plumbing ---------------------------------------------------------

def unit(n, d):
    return {diag(lam): laurent.ONE for lam in compositions(n, d)}


# -- Chevalley shapes ----------------------------------------------------------

def chev_shape(B):
    """Classify B as ('diag', 0) / ('E', h, r) / ('F', h, r) / None.

    ('E', h, r): B minus r E_{h,h+1} is diagonal (r > 0); mirror for 'F'.
    """
    n = len(B)
    off = [(i, j) for i in range(n) for j in range(n) if i != j and B[i][j]]
    if not off:
        return ("diag", 0, 0)
    if len(off) != 1:
        return None
    i, j = off[0]
    if j == i + 1:
        return ("E", i + 1, B[i][j])
    if i == j + 1:
        return ("F", j + 1, B[i][j])
    return None


def _chev_rows(kind, h):
    """0-based (source, target) rows of a Chevalley factor at h: 'E' moves
    entries from row h + 1 to row h (1-based), 'F' from row h to row h + 1."""
    return (h, h - 1) if kind == "E" else (h - 1, h)


def _chev_factor(kind, h, r, cols):
    """The Chevalley matrix of shape (kind, h, r) with column sums cols, or
    None when its diagonal would go negative."""
    src, tgt = _chev_rows(kind, h)
    dvec = list(cols)
    dvec[src] -= r
    if dvec[src] < 0:
        return None
    return mat_add(diag(dvec), mat_unit(len(dvec), tgt + 1, src + 1, r))


@lru_cache(maxsize=4096)
def _row_moves(kind, r, n, src, a_src, a_tgt, stab):
    """The closed-form rule on the two rows of A that {B} moves, as
    ((new target row, new source row, coefficient), ...) over t in N^n with
    sum r, zero coefficients dropped.  For B - r E_{h,h+1} diagonal, t moves
    from row h + 1 to row h with weight v^beta t^alpha and the product of
    overlined Gaussian binomials (a_{hu} + t_u choose t_u); the F shape
    (B - r E_{h+1,h} diagonal) is the mirror, reading the columns in reverse
    order.  With stab=True the source row's diagonal entry may go negative.
    """
    # sums of the target row's entries at or after column u and of the
    # source row's strictly after it, "after" in the shape's column order
    tgt_after = [sum(a_tgt[u:] if kind == "E" else a_tgt[:u + 1]) for u in range(n)]
    src_after = [sum(a_src[u + 1:] if kind == "E" else a_src[:u]) for u in range(n)]
    moves = []
    for tv in compositions(n, r):
        if any(t > a for u, (t, a) in enumerate(zip(tv, a_src)) if u != src or not stab):
            continue
        s_tgt = sum(t * s for t, s in zip(tv, tgt_after))
        s_src = sum(t * s for t, s in zip(tv, src_after))
        s_tt = (r * r - sum(t * t for t in tv)) // 2
        coef = mono(s_tgt - s_src + s_tt, s_tgt + s_src - s_tt)
        for u in range(n):
            if tv[u]:
                coef = coef * laurent.qbinom_bar(a_tgt[u] + tv[u], tv[u])
        if coef:
            moves.append((tuple(m + t for m, t in zip(a_tgt, tv)),
                          tuple(m - t for m, t in zip(a_src, tv)), coef))
    return tuple(moves)


def _lmul_into(out, shape, terms, stab):
    """Add {B} times each c {A} of terms into out in place, B of Chevalley
    shape `shape` and ro(A) == co(B) for every A; returns out."""
    kind, h, r = shape
    src, tgt = (0, 0) if kind == "diag" else _chev_rows(kind, h)
    for A, cA in terms:
        # a diagonal {B} keeps {A} as it is
        moves = (((A[0], A[0], laurent.ONE),) if kind == "diag"
                 else _row_moves(kind, r, len(A), src, A[src], A[tgt], stab))
        rows = list(A)
        for new_tgt, new_src, coef in moves:
            rows[tgt], rows[src] = new_tgt, new_src
            At = tuple(rows)
            prev = out.get(At, laurent.ZERO) + cA * coef
            if prev:
                out[At] = prev
            else:
                out.pop(At, None)
    return out


def lmul_braced(B, x, stab=False):
    """Left multiplication of a braced element by {B}, B of Chevalley shape
    (_row_moves); a diagonal B keeps the terms whose row sums are its column
    sums.  With stab=True diagonal entries may go negative.
    """
    shape = chev_shape(B)
    if shape is None:
        raise ValueError("left factor %r is not Chevalley-shaped" % (B,))
    cb = co(B)
    terms = [(A, c) for A, c in x.items() if ro(A) == cb]
    if len(terms) < len(x) and shape[0] != "diag":
        bad = next(ro(A) for A in x if ro(A) != cb)
        raise ValueError("row/column sums mismatch: co(B)=%r ro(A)=%r" % (cb, bad))
    return _lmul_into({}, shape, terms, stab)


def chev_mul(x, y, stab=False):
    """Product when every matrix in x is Chevalley-shaped."""
    by_ro = {}
    for A, cy in y.items():
        by_ro.setdefault(ro(A), []).append((A, cy))
    out = {}
    for B, c in x.items():
        sub = by_ro.get(co(B))
        if not sub:
            continue
        shape = chev_shape(B)
        if shape is None:
            raise ValueError("left factor %r is not Chevalley-shaped" % (B,))
        _lmul_into(out, shape, ((A, c * cA) for A, cA in sub), stab)
    return out


# -- generators ----------------------------------------------------------------

def gen_elt(sym, n, d):
    """The generator as a braced element: E_i is t times the sum of the
    {D + E_{i,i+1}}, F_i the sum of the {D + E_{i+1,i}} (D diagonal of size
    d - 1); A_a^s and B_a^s weigh each {diag(lam)} at lam_a."""
    kind = sym[0]
    if kind in ("A", "B"):
        return {diag(lam): tensor.cartan_weight(sym, lam[sym[1] - 1]) for lam in compositions(n, d)}
    if kind not in ("E", "F"):
        raise ValueError("unknown generator symbol %r" % (sym,))
    i = sym[1]
    off, coef = (mat_unit(n, i, i + 1), laurent.T) if kind == "E" else (mat_unit(n, i + 1, i), laurent.ONE)
    return {mat_add(diag(lam), off): coef for lam in compositions(n, d - 1)}


def mul_gen(sym, x, n, d):
    """Left multiplication by a generator element, using row-profile matching."""
    kind = sym[0]
    if kind in ("A", "B"):
        return clean({A: c * tensor.cartan_weight(sym, ro(A)[sym[1] - 1]) for A, c in x.items()})
    if kind not in ("E", "F"):
        raise ValueError("unknown generator symbol %r" % (sym,))
    shape, scale = (kind, sym[1], 1), laurent.T if kind == "E" else laurent.ONE
    out = {}
    for A, c in x.items():
        if _chev_factor(*shape, ro(A)) is not None:
            _lmul_into(out, shape, ((A, c * scale),), False)
    return out


def expand_word(word, n, d):
    """Product of generator elements, rightmost factor applied first."""
    x = unit(n, d)
    for sym in reversed(list(word)):
        x = mul_gen(sym, x, n, d)
    return x


def cartan_elt(i, n, d):
    """(A_i B_{i+1} - B_i A_{i+1}) / (v - v^{-1}): diagonal balanced integers."""
    out = {}
    for lam in compositions(n, d):
        k = lam[i - 1] - lam[i]
        c = laurent.vint(k).shift(0, lam[i - 1] + lam[i])
        if c:
            out[diag(lam)] = c
    return out


# -- relation suite -------------------------------------------------------------

def verify_relations(n, d):
    """Every defining relation of the convolution algebra, checked as exact
    identities of braced elements.  Returns a list of (name, ok) pairs; the
    printed-variant entries record exponent normalizations that circulate
    in print but fail on the model (they are expected to fail and carry an
    'expect-fail' name prefix so suites can assert on them).
    """
    checks = []
    vt_mid = mono(1, 1) + mono(-1, 1)
    t2 = mono(0, 2)

    def w(*syms):
        return expand_word(syms, n, d)

    def serre(X, Y, a, c):
        """Is a XXY - (vt + v^{-1}t) XYX + c YXX zero?"""
        lhs = elt_add(elt_add(elt_scale(w(X, X, Y), a), elt_scale(w(X, Y, X), -vt_mid)),
                      elt_scale(w(Y, X, X), c))
        return clean(lhs) == {}

    one = unit(n, d)
    # R1: Cartan family commutes; inverses compose to the unit
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            ok = w(Ap(a), Ap(b)) == w(Ap(b), Ap(a)) and w(Ap(a), Bp(b)) == w(Bp(b), Ap(a)) \
                and w(Bp(a), Bp(b)) == w(Bp(b), Bp(a))
            checks.append(("R1 commute a=%d b=%d" % (a, b), ok))
        checks.append(("R1 inverse a=%d" % a,
                       w(Ap(a), Ap(a, -1)) == one and w(Bp(a), Bp(a, -1)) == one))
    # R2 conjugations (the F-lines carry the model-corrected t-exponent)
    for i in range(1, n + 1):
        for j in range(1, n):
            br = pairing(n, i, j)
            lhsA = w(Ap(i), E(j), Ap(i, -1))
            checks.append(("R2 A E i=%d j=%d" % (i, j),
                           lhsA == elt_scale(w(E(j)), mono(br, br))))
            lhsB = w(Bp(i), E(j), Bp(i, -1))
            checks.append(("R2 B E i=%d j=%d" % (i, j),
                           lhsB == elt_scale(w(E(j)), mono(-br, br))))
            lhsAF = w(Ap(i), F(j), Ap(i, -1))
            checks.append(("R2 A F i=%d j=%d" % (i, j),
                           lhsAF == elt_scale(w(F(j)), mono(-br, -br))))
            lhsBF = w(Bp(i), F(j), Bp(i, -1))
            checks.append(("R2 B F i=%d j=%d" % (i, j),
                           lhsBF == elt_scale(w(F(j)), mono(br, -br))))
            brt = pairing(n, j, i)
            if brt != br:
                ok_printed = lhsAF == elt_scale(w(F(j)), mono(-br, -brt))
                checks.append(("expect-fail printed R2 A F i=%d j=%d" % (i, j), ok_printed))
                ok_printed_b = lhsBF == elt_scale(w(F(j)), mono(br, -brt))
                checks.append(("expect-fail printed R2 B F i=%d j=%d" % (i, j), ok_printed_b))
    # R3
    for i in range(1, n):
        for j in range(1, n):
            comm = elt_add(w(E(i), F(j)), elt_scale(w(F(j), E(i)), -laurent.ONE))
            rhs = cartan_elt(i, n, d) if i == j else {}
            checks.append(("R3 i=%d j=%d" % (i, j), clean(comm) == clean(rhs)))
    # R4 two-parameter Serre (adjacent) and commutation (distant)
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            if abs(i - j) > 1:
                checks.append(("R4 EE i=%d j=%d" % (i, j), w(E(i), E(j)) == w(E(j), E(i))))
                checks.append(("R4 FF i=%d j=%d" % (i, j), w(F(i), F(j)) == w(F(j), F(i))))
                continue
            a, c = (laurent.ONE, t2) if j == i + 1 else (t2, laurent.ONE)
            checks.append(("R4 E i=%d j=%d" % (i, j), serre(E(i), E(j), a, c)))
            checks.append(("R4 F i=%d j=%d" % (i, j), serre(F(i), F(j), c, a)))
    # R5: products over the whole Cartan family are global monomials
    prodA = expand_word([Ap(a) for a in range(1, n + 1)], n, d)
    checks.append(("R5 prod A", prodA == elt_scale(one, mono(d, d))))
    prodB = expand_word([Bp(a) for a in range(1, n + 1)], n, d)
    checks.append(("R5 prod B", prodB == elt_scale(one, mono(-d, d))))
    # R6 minimal polynomials of the diagonal generators
    for j in range(1, n + 1):
        acc = one
        for l in range(d + 1):
            acc = elt_add(mul_gen(Ap(j), acc, n, d), elt_scale(acc, -mono(l, l)))
        checks.append(("R6 A_%d" % j, clean(acc) == {}))
        accB = one
        for l in range(d + 1):
            accB = elt_add(mul_gen(Bp(j), accB, n, d), elt_scale(accB, -mono(-l, l)))
        checks.append(("R6 B_%d" % j, clean(accB) == {}))
    # R7 nilpotency
    for i in range(1, n):
        checks.append(("R7 E_%d" % i, expand_word([E(i)] * (d + 1), n, d) == {}))
        checks.append(("R7 F_%d" % i, expand_word([F(i)] * (d + 1), n, d) == {}))
    return checks


# -- partial order ----------------------------------------------------------------

def preceq(A, B):
    """Corner-sum dominance in both triangles (same row/column profiles)."""
    n = len(A)
    if ro(A) != ro(B) or co(A) != co(B):
        return False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            sa = sum(A[r][s] for r in range(i) for s in range(j - 1, n))
            sb = sum(B[r][s] for r in range(i) for s in range(j - 1, n))
            if sa > sb:
                return False
    for i in range(1, n + 1):
        for j in range(1, i):
            sa = sum(A[r][s] for r in range(i - 1, n) for s in range(j))
            sb = sum(B[r][s] for r in range(i - 1, n) for s in range(j))
            if sa > sb:
                return False
    return True


def prec(A, B):
    return A != B and preceq(A, B)


# -- triangular products ------------------------------------------------------------

class ChainInfeasible(ValueError):
    """The diagonal chain of a triangular factorization went negative."""


def triangular_factors(A):
    """Ordered Chevalley factor matrices whose product is {A} + lower terms.

    Every strictly-upper entry a_{ij} contributes E-type factors at
    h = i..j-1 (taken column-major, steepest last), every strictly-lower
    entry F-type factors at h = j..i-1; the interleaving diagonals are the
    unique solution of the row/column-profile chain anchored at co(A).
    """
    n = len(A)
    e_triples = [
        (i, h, j)
        for i in range(1, n + 1)
        for h in range(1, n + 1)
        for j in range(1, n + 1)
        if i <= h < j and A[i - 1][j - 1]
    ]
    e_triples.sort(key=lambda t: (-t[2], t[1] - t[0], -t[0]))
    f_triples = [
        (i, h, j)
        for i in range(1, n + 1)
        for h in range(1, n + 1)
        for j in range(1, n + 1)
        if j <= h < i and A[i - 1][j - 1]
    ]
    # final tie-break ascending in j (the transpose of the E-side rule; the
    # printed descending variant loses the unit leading coefficient)
    f_triples.sort(key=lambda t: (t[0], -(t[1] - t[2]), t[2]))
    specs = [("E", h, A[i - 1][j - 1]) for (i, h, j) in e_triples]
    specs += [("F", h, A[i - 1][j - 1]) for (i, h, j) in f_triples]
    factors = []
    profile = co(A)
    for kind, h, r in reversed(specs):
        B = _chev_factor(kind, h, r, profile)
        if B is None:
            raise ChainInfeasible("column profile %r cannot absorb %d at %d" % (profile, r, h))
        factors.append(B)
        profile = ro(B)
    factors.reverse()
    if profile != ro(A):
        raise ChainInfeasible("chain does not close onto the row profile of %r" % (A,))
    return factors


def triangular_product(A):
    """({A} + strictly lower terms, the factor list); leading term asserted."""
    factors = triangular_factors(A)
    x = {A_diag: laurent.ONE for A_diag in [diag(co(A))]}
    for B in reversed(factors):
        x = lmul_braced(B, x)
    if clean(x).get(A) != laurent.ONE:
        raise AssertionError("triangular product lost its leading term for %r" % (A,))
    for M in x:
        if M != A and not prec(M, A):
            raise AssertionError("non-lower term %r in the triangular product of %r" % (M, A))
    return x, factors


# -- operator model -----------------------------------------------------------------

def content_projector(lam, n, d):
    """Tensor-space projector onto sequences whose value counts are lam."""
    cols = {}
    for r in tensor.all_seqs(n, d):
        cnt = tuple(sum(1 for x in r if x == a) for a in range(1, n + 1))
        if cnt == tuple(lam):
            cols[r] = {r: laurent.ONE}
    return cols


@lru_cache(maxsize=2048)
def braced_op(A, n, d):
    """Tensor-space operator of a single braced basis element (n >= d unless
    A is diagonal: a diagonal element acts as a content projector for all n)."""
    shape = chev_shape(A)
    if shape is not None and shape[0] == "diag":
        return content_projector(diag_of(A), n, d)
    if n < d:
        raise ValueError("the operator model is faithful only for n >= d")
    if shape is not None:
        kind, h, r = shape
        sym = ("E", h) if kind == "E" else ("F", h)
        word_elt = expand_word([sym] * r, n, d)
        cA = clean(word_elt).get(A)
        if not cA:
            raise AssertionError("power expansion missed the factor %r" % (A,))
        P = tensor.op_word([sym] * r, n, d)
        P = tensor.op_compose(content_projector(ro(A), n, d), tensor.op_compose(P, content_projector(co(A), n, d)))
        return tensor.op_clean(
            {rr: {ss: laurent.exact_div(c, cA) for ss, c in col.items()} for rr, col in P.items()}
        )
    expansion, factors = triangular_product(A)
    P = tensor.op_identity(n, d)
    for B in factors:
        P = tensor.op_compose(P, braced_op(B, n, d))
    for M, c in clean(expansion).items():
        if M != A:
            tensor.op_add_into(P, braced_op(M, n, d), -c)
    return P


def elt_op(x, n, d):
    out = {}
    for A, c in x.items():
        tensor.op_add_into(out, braced_op(A, n, d), c)
    return out


def _height(A):
    """The total of the corner sums that preceq compares.

    An entry k = |i - j| steps off the diagonal lies in k(k + 1)/2 of the
    corners.  If prec(B, A), no corner sum of B exceeds that of A, and one is
    smaller: the corner sums fix the off-diagonal entries by
    inclusion-exclusion and the row sums then fix the diagonal, so equal
    sums would force B == A.  Hence prec(B, A) implies _height(B) < _height(A).
    """
    return sum(m * abs(i - j) * (abs(i - j) + 1) // 2
               for i, row in enumerate(A) for j, m in enumerate(row))


def op_to_elt(P, n, d):
    """Re-express an operator in the braced basis (n >= d, faithfulness).

    braced_op(A) is unitriangular: its entries sit at pairs of sequences
    whose position matrix B has preceq(B, A), and it holds a unit monomial at
    the pairs of position A.  Walking the matrices by decreasing _height, the
    residual at one position-A pair is therefore c_A times that unit; the
    term is peeled off, and what is left at the end must be zero.
    """
    out = {}
    rest = tensor.op_clean(P)
    for A in sorted(theta_matrices(n, d), key=_height, reverse=True):
        s_row = tuple(i + 1 for i, row in enumerate(A) for m in row for _ in range(m))
        s_col = tuple(j + 1 for row in A for j, m in enumerate(row) for _ in range(m))
        entry = rest.get(s_col, {}).get(s_row)
        if entry:
            op = braced_op(A, n, d)
            out[A] = c = laurent.exact_div(entry, op[s_col][s_row])
            tensor.op_add_into(rest, op, -c)
    if rest:
        raise laurent.InexactDivision("operator is not in the image of the algebra")
    return out


def product_via_operators(x, y, n, d):
    """General product through the faithful operator model (n >= d)."""
    if n < d:
        raise ValueError("general products need n >= d")
    P = tensor.op_compose(elt_op(x, n, d), elt_op(y, n, d))
    return op_to_elt(P, n, d)


# -- oracle comparison ----------------------------------------------------------------

def oracle_compare(n, d, primes=(3, 5, 7), allow_large=False):
    """Check every admissible Chevalley product against flag counting.

    For each left factor {B} of E or F shape and each compatible A, the
    closed-form product is rewritten on the e-basis; all coefficients must be
    t-free with even v-powers and must evaluate at v^2 = p to the oracle's
    counts for every prime.  Returns a list of (B, A, ok).
    """
    from . import flags

    tables = {p: flags.conv_table(p, d, n, allow_large=allow_large) for p in primes}
    results = []
    thetas = theta_matrices(n, d)
    lefts = []
    for B in thetas:
        shape = chev_shape(B)
        if shape is not None and shape[0] != "diag":
            lefts.append(B)

    for B in lefts:
        for A in thetas:
            if ro(A) != co(B):
                continue
            prod = lmul_braced(B, {A: laurent.ONE})
            shiftBA = dminusr(B) + dminusr(A)
            e_prod = {
                Cmat: c * mono(shiftBA - dminusr(Cmat), dminusr(Cmat) - shiftBA)
                for Cmat, c in prod.items()
            }
            ok = all(flags.counts_match(e_prod, tables[p].get((B, A), {}), p) for p in primes)
            results.append((B, A, ok))
    return results


# -- serialization -----------------------------------------------------------------------

def to_json(x, n, d):
    terms = [
        {"matrix": [list(r) for r in A], "poly": laurent.to_json(c)}
        for A, c in sorted(x.items())
    ]
    return {"schema": 1, "algebra": "schur", "n": n, "d": d, "basis": "braced", "terms": terms}


def from_json(doc):
    if doc.get("algebra") != "schur":
        raise ValueError("not a schur element")
    if doc.get("basis", "braced") != "braced":
        raise ValueError("basis %r is not 'braced'" % (doc["basis"],))
    n, d = laurent.json_int(doc["n"]), laurent.json_int(doc["d"])
    x = {}
    for term in doc["terms"]:
        A = tuple(tuple(map(laurent.json_int, row)) for row in term["matrix"])
        if len(A) != n or any(len(row) != n or min(row) < 0 for row in A) or sum(map(sum, A)) != d:
            raise ValueError("matrix %r is not %d x %d natural summing to %d" % (A, n, n, d))
        if A in x:
            raise ValueError("repeated matrix %r" % (A,))
        x[A] = laurent.from_json(term["poly"])
    return clean(x), n, d
