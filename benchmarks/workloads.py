"""The four benchmark workloads: seeded inputs and ordered job lists.

Each workload stresses different layers (see NOTES.md for the layer map).
The seed changes only the generated inputs -- which pairs, points, offsets
and elements -- never the number of jobs or checks; run.py verifies the
check count of every job against digests.json on every seed.

Every workload also serves a stream of product requests (the `mult` jobs),
because the latency metrics are reported on every workload: `operators`
multiplies at (3,3) (and runs a few (4,3) products as a separate job), the
others at (3,2), where a request costs a few milliseconds and stays a small
share of the run.
"""

from __future__ import annotations

import math
import random

from vtschur import cli, flags, galois, hecke, laurent, schur, stab, tensor, uvt
from vtschur.laurent import ONE, mono
from vtschur.matrices import add as mat_add, co, diag, dminusr, mat, ro, theta_matrices
from vtschur.matrices import unit as mat_unit

WORKLOADS = {
    "oracle": {
        "why": "loads the flag-counting ground truth (flags); no elimination, no operators",
        "seed_varies": "the 4 Chevalley pairs counted at (n,d,p)=(3,3,3) and the product requests",
    },
    "commutant": {
        "why": "loads exact and modular elimination (linalg) through the duality suite",
        "seed_varies": "the generic point (v0,t0) of each configuration, drawn from POINT_POOL, and the product requests",
    },
    "stabilize": {
        "why": "loads the Chevalley rule, large Laurent binomials and dense Fraction solving",
        "seed_varies": "the shift offsets of the 10 criterion-8 fits, and the product requests",
    },
    "operators": {
        "why": "loads the tensor-space operator model: many small polynomials, exact_div, braced_op cache",
        "seed_varies": "the product and Hecke elements, and the star/sigma sample seeds",
    },
}

# Generic points, each checked to give binom(n^2+d-1, d) and d! on every
# duality configuration below (see NOTES.md).  Small integers keep the cost
# of the exact Fraction path the same from point to point.
POINT_POOL = ((2, 3), (5, 7), (3, 2), (2, 5), (3, 5), (5, 3), (7, 2), (2, 7), (3, 7), (7, 3))

DUALITY_CONFIGS = ((2, 2), (3, 2), (4, 2), (3, 3))

# Criterion 5's (p, n, d) grid without (5, 3, 3), which alone took 3.4 s of
# the grid's 5.1 s and runs the same code as (5, 2, 3); see NOTES.md.
ORBIT_CONFIGS = tuple((p, n, d) for p in (3, 5) for n in (2, 3) for d in (1, 2, 3)
                      if (p, n, d) != (5, 3, 3))

# acceptance criterion 8's catalog of stabilization pairs
FIT_CATALOG = (
    (mat_unit(2, 1, 2), diag((0, 1))),
    (mat_unit(2, 1, 2), mat_unit(2, 2, 1)),
    (mat_unit(2, 2, 1), mat_unit(2, 1, 2)),
    (mat([[0, 2], [0, 0]]), diag((0, 2))),
    (mat([[0, 2], [0, 0]]), mat([[0, 0], [2, 0]])),
    (mat_add(mat_unit(3, 1, 2), diag((0, 0, 1))), mat_add(mat_unit(3, 2, 1), diag((0, 0, 1)))),
    (mat_unit(3, 2, 3), mat_unit(3, 3, 2)),
    (mat_unit(3, 2, 3), mat_unit(3, 3, 1)),
    (mat_add(mat_unit(2, 1, 2), diag((-1, 0))), diag((-1, 1))),
    (mat_add(mat_unit(3, 1, 2), diag((-2, 0, 0))), mat_add(mat_unit(3, 2, 3), diag((-2, 0, 0)))),
)
# The offsets are a seeded permutation of one fixed multiset, so the total
# shift (and with it the Laurent degree growth) is the same on every seed.
FIT_OFFSETS = (0, 0, 0, 0, 1, 1, 1, 2, 2, 2)

# Product requests per pass: one warm-up and 50 timed (see with_requests),
# so a run (two passes or more) pools at least 100 latencies, with at least
# 10 beyond p90.  The (4,3) products run as their own job, outside the
# latency stream: mixed into it they made about 10% of the samples slow,
# which put p90 on the edge between the two sizes.
MULT_SMALL = (3, 2, 51)  # (n, d, requests)
MULT_OPERATORS = (3, 3, 51)
MULT_LARGE = (4, 3, 3)
HECKE_TRIPLES = 6


def cfg(n, d, m=1, spec=(2, 3), window=4):
    return {"n": n, "d": d, "m": m, "primes": (3, 5, 7), "window": window, "spec": spec}


# -- seeded inputs ------------------------------------------------------------------

def rand_poly(rng):
    """A nonzero two-term Laurent polynomial with small exponents."""
    while True:
        p = mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))) \
            + mono(rng.randint(-2, 2), rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
        if p:
            return p


def chevalley_lefts(n, d):
    return [A for A in theta_matrices(n, d)
            if schur.chev_shape(A) is not None and schur.chev_shape(A)[0] != "diag"]


def product_requests(rng, n, d, count):
    """Seeded (n, d, x, y, kind) requests; kinds alternate 'chev'/'general'.

    A 'chev' left factor has only Chevalley-shaped terms, so chev_mul gives
    an independent closed-form reference.  Right factors draw from the
    matrices whose row profile meets a column profile of the left factor,
    so no product is trivially zero.
    """
    thetas = theta_matrices(n, d)
    pools = {"chev": chevalley_lefts(n, d),
             "general": [A for A in thetas if schur.chev_shape(A) is None]}
    reqs = []
    for k in range(count):
        kind = ("chev", "general")[k % 2]
        lefts = rng.sample(pools[kind], 2)
        x = {B: rand_poly(rng) for B in lefts}
        cols = {co(B) for B in lefts}
        rights = [A for A in thetas if ro(A) in cols]
        y = {A: rand_poly(rng) for A in rng.sample(rights, 3)}
        reqs.append((n, d, x, y, kind))
    return reqs


def convolve_pairs(rng, count):
    """Seeded Chevalley pairs (B, A) at (n, d) = (3, 3), one E and one F
    shape per two pairs so every seed counts the same mix."""
    lefts = chevalley_lefts(3, 3)
    by_kind = {k: [B for B in lefts if schur.chev_shape(B)[0] == k] for k in "EF"}
    thetas = theta_matrices(3, 3)
    out = []
    for k in range(count):
        B = rng.choice(by_kind["EF"[k % 2]])
        A = rng.choice([A for A in thetas if ro(A) == co(B)])
        out.append((B, A))
    return out


def hecke_triples(rng, d, count):
    """Seeded (x, y, z) with two terms each, all on permutations of length d.

    Fixing the length fixes the reduced-word work per product; unrestricted
    supports make the cost swing severalfold from seed to seed."""
    perms = [w for w in hecke.all_perms(d) if hecke.inversions(w) == d]
    return [tuple({w: rand_poly(rng) for w in rng.sample(perms, 2)} for _ in range(3))
            for _ in range(count)]


# -- jobs ---------------------------------------------------------------------------

def job_mult(job, reqs, timer, first=0):
    """Product requests through the general product path.

    With a timer (a speed.Sampler), every request runs through
    timer.timed, which records its latency; `first` numbers the requests in
    the check names.
    """
    for i, (n, d, x, y, kind) in enumerate(reqs, first):
        name = "mult %d (%d,%d) %s" % (i, n, d, kind)
        try:
            if timer is None:
                prod = schur.product_via_operators(x, y, n, d)
            else:
                prod = timer.timed(schur.product_via_operators, x, y, n, d)
            if kind == "chev":
                job.check_product(name + " = chev_mul", prod, schur.chev_mul(x, y), n, d)
            else:
                # faithfulness: the result's operator is the composed operator
                job.output(schur.to_json(prod, n, d))
                composed = tensor.op_compose(schur.elt_op(x, n, d), schur.elt_op(y, n, d))
                job.add(name + " round-trips", tensor.op_eq(schur.elt_op(prod, n, d), composed))
        except Exception as exc:  # noqa: BLE001 - one failed request is one failed check
            job.add("%s raised %s: %s" % (name, type(exc).__name__, exc), False)


def with_requests(jobs, reqs, timer):
    """Spread a stream of product requests over the pass.

    The first request warms the braced_op cache for its size and is not
    timed.  The others follow the jobs in equal chunks, so the latency
    samples see the machine through the whole pass: in one block they
    spanned well under a second of it, and their median moved with the
    host's speed from pass to pass.
    """
    warm, rest = reqs[:1], reqs[1:]
    out = [("mult warm-up", job_mult, (warm, None), True)]
    for k, job in enumerate(jobs):
        lo, hi = k * len(rest) // len(jobs), (k + 1) * len(rest) // len(jobs)
        out.append(job)
        out.append(("mult %d" % k, job_mult, (rest[lo:hi], timer, 1 + lo), True))
    return out


def job_oracle_compare(job, n, d, primes):
    for B, A, ok in schur.oracle_compare(n, d, primes=primes):
        job.add("pair B=%r A=%r" % (B, A), ok)


def job_orbit_counts(job):
    """Acceptance criterion 5: #X*Y orbit types = n^d and #Y*Y = d!."""
    for p, n, d in ORBIT_CONFIGS:
        X = flags.enum_flags_X(p, d, n)
        Y = flags.enum_flags_Y(p, d)
        xy = {flags.orbit_matrix(V, F, p) for V in X for F in Y}
        yy = {flags.orbit_matrix(F, G, p) for F in Y for G in Y}
        job.check_dim("orbit types X*Y p=%d n=%d d=%d" % (p, n, d), len(xy), n ** d)
        job.check_dim("orbit types Y*Y p=%d n=%d d=%d" % (p, n, d), len(yy), math.factorial(d))


def closed_form_counts(B, A, p):
    """The closed-form product {B}{A} on the e-basis at v^2 = p, as counts.

    None when a coefficient is not a t-free even-v polynomial.
    """
    shift = dminusr(B) + dminusr(A)
    out = {}
    for C, c in schur.lmul_braced(B, {A: ONE}).items():
        e_coeff = c * mono(shift - dminusr(C), dminusr(C) - shift)
        try:
            vals = laurent.eval_q(e_coeff, p)
        except laurent.OddVPower:
            return None
        if set(vals) - {0}:
            return None
        if vals.get(0):
            out[C] = vals[0]
    return out


def job_convolve(job, B, A, p, d, n):
    counts = flags.convolve_count(B, A, p, d, n)
    job.output({"B": B, "A": A, "counts": sorted(counts.items())})
    job.add("convolve B=%r A=%r p=%d = lmul_braced at v^2=p" % (B, A, p),
            closed_form_counts(B, A, p) == counts)


def job_suite(job, suite, config):
    job.add_report(cli.run_suite(suite, config))


def job_fit(job, A1, A2, plist):
    fit = stab.stabilization_check(A1, A2, plist)
    job.output([[z, [[k, str(g)] for k, g in sorted(pat.items())]] for z, pat in sorted(fit.items())])
    job.add("fit %r x %r consistent with the limit product" % (A1, A2), bool(fit))


def job_star(job, n, d, sample_seed):
    """run_suite('star') with the associativity sample seeded."""
    job.extend(uvt.verify_all(n, d, star=True))
    job.add("twist exponent identity n=%d" % n, uvt.exponent_identity_holds(n))
    job.add("star associativity sample", uvt.star_associativity_sample(n, seed=sample_seed))


def job_descend(job, n, d, sample_seed):
    """run_suite('descend') with the involution sample seeded."""
    job.add("sigma involutive", galois.sigma_involutive(n, d, seed=sample_seed))
    job.extend(galois.equivariance_check(n, d))
    job.extend(galois.descent_suite(n, d))
    elt, rs = hecke.quadratic_certificate(1, max(d, 2))
    job.add("hecke quadratic certificate (r,s) coefficients: T^2 %r T %r 1 %r"
            % (rs["T^2"], rs["T"], rs["1"]), not elt)


def job_hecke(job, triples, d):
    for i, (x, y, z) in enumerate(triples):
        left = hecke.hecke_mul(hecke.hecke_mul(x, y), z)
        right = hecke.hecke_mul(x, hecke.hecke_mul(y, z))
        job.check_hecke("hecke %d (xy)z = x(yz) d=%d" % (i, d), left, right, d)


# -- plans --------------------------------------------------------------------------

def plan(workload, seed, timer):
    """Seeded inputs and the ordered job list [(name, fn, args, seeded)].

    `timer` (a speed.Sampler, or None) times the product requests.

    `seeded` marks jobs whose check names or outputs carry seeded inputs;
    their digests are pinned for the seed digests.json records (0) only.  Every other job must
    reproduce its pinned digest on every seed: the duality dimensions do
    not depend on the generic point, and a stabilization fit does not
    depend on the shifts it was fitted from.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "oracle":
        jobs = [
            ("oracle_compare n=2 d=3", job_oracle_compare, (2, 3, (3, 5, 7)), False),
            ("oracle_compare n=3 d=2", job_oracle_compare, (3, 2, (3, 5, 7)), False),
            ("oracle_compare n=3 d=3", job_oracle_compare, (3, 3, (3,)), False),
            ("orbit counts", job_orbit_counts, (), False),
        ]
        for k, (B, A) in enumerate(convolve_pairs(rng, 4)):
            jobs.append(("convolve %d" % k, job_convolve, (B, A, 3, 3, 3), True))
    elif workload == "commutant":
        jobs = []
        for (n, d), spec in zip(DUALITY_CONFIGS, rng.sample(POINT_POOL, len(DUALITY_CONFIGS))):
            jobs.append(("duality n=%d d=%d" % (n, d), job_suite, ("duality", cfg(n, d, spec=spec)), False))
    elif workload == "stabilize":
        offsets = list(FIT_OFFSETS)
        rng.shuffle(offsets)
        jobs = []
        for k, ((A1, A2), off) in enumerate(zip(FIT_CATALOG, offsets)):
            p0 = max(stab.suggested_p0(A1, A2), 3) + off
            jobs.append(("fit %d" % k, job_fit, (A1, A2, (p0, p0 + 1, p0 + 2)), False))
        for n in (2, 3):
            jobs.append(("stab n=%d window 4" % n, job_suite, ("stab", cfg(n, 2)), False))
    elif workload == "operators":
        jobs = [
            ("uvt n=4 d=3", job_suite, ("uvt", cfg(4, 3)), False),
            ("star n=4 d=3", job_star, (4, 3, rng.randrange(1 << 30)), False),
            ("schur n=4 d=3", job_suite, ("schur", cfg(4, 3)), False),
            ("jparity-hat n=4 d=3 m=1", job_suite, ("jparity-hat", cfg(4, 3, m=1)), False),
            ("jparity-tilde n=3 d=3 m=2", job_suite, ("jparity-tilde", cfg(3, 3, m=2)), False),
            ("descend n=3 d=3", job_descend, (3, 3, rng.randrange(1 << 30)), False),
            ("mult (4,3)", job_mult, (product_requests(rng, *MULT_LARGE), None), True),
            ("hecke d=5", job_hecke, (hecke_triples(rng, 5, HECKE_TRIPLES), 5), True),
        ]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    stream = MULT_OPERATORS if workload == "operators" else MULT_SMALL
    return with_requests(jobs, product_requests(rng, *stream), timer)
