"""Command-line front end: verification suites, products, oracle runs.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
schema errors, parameters outside a suite's domain or past its guard, or an
--out path that cannot be written.  The commands raise those as UsageError
or GuardExceeded, and main alone prints the message and exits 2 (argparse
errors already exit with 2).  Set VTSCHUR_ALLOW_LARGE=1 to lift every guard
of every suite, at your own expense.  Without --n, verify runs a suite at
the least n its rules accept at the default --m 1 (DEFAULT_N).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import flags, galois, hecke, jparity, laurent, linalg, schur, stab, tensor, uvt
from .report import Report

SUITES = (
    "schur", "hecke", "duality", "uvt", "star", "stab",
    "jparity-tilde", "jparity-hat", "descend", "oracle",
)
# verify's --n when none is given: the least n each suite's rules accept at
# the default --m 1 (jparity-hat also reads E_{m+1}, so it needs n >= 3)
DEFAULT_N = {"jparity-hat": 3}


class UsageError(ValueError):
    """A usage or schema error, parameters outside a suite's domain, or an
    --out path that cannot be written: main prints it on stderr and exits 2."""


def _guard(*limits):
    """GuardExceeded at the first limit text given, unless VTSCHUR_ALLOW_LARGE=1."""
    over = next(filter(None, limits), None)
    if over and os.environ.get("VTSCHUR_ALLOW_LARGE", "") != "1":
        raise flags.GuardExceeded("guard exceeded: %s; set VTSCHUR_ALLOW_LARGE=1 to lift it" % over)


def _rule(check, *args):
    """check(*args), its ValueError raised as a bad request."""
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError("bad request: %s" % exc) from None


def run_suite(suite, cfg):
    """Run one suite.  Each branch judges its rules before any work: its
    guard before any primality test, then the domain rules of its library."""
    n, d, m = cfg["n"], cfg["d"], cfg["m"]
    if n < 1 or d < 0:
        raise UsageError("bad request: need n >= 1 and d >= 0, got n=%d d=%d" % (n, d))
    # below these degrees the printed variants hold trivially, so their
    # expect-fail checks could not be refuted
    low = {"schur": 1, "jparity-tilde": 1, "jparity-hat": 2}.get(suite, 0)
    if d < low:
        raise UsageError("bad request: %s needs d >= %d, got d=%d" % (suite, low, d))
    rep = Report(suite=suite, config=cfg)
    t0 = time.time()
    if suite == "schur":
        _guard(tensor.catalog_guard(n, d))
        rep.extend(schur.verify_relations(n, d))
    elif suite == "hecke":
        _guard(*(flags.over_guard(p, d, d) for p in cfg["primes"]))
        for p in cfg["primes"]:
            _rule(flags.check_prime, p)
        rep.extend(hecke.verify_hecke(d))
        for w, u, ok in hecke.geometric_structure_match(d, cfg["primes"][0]):
            rep.add("geometric %r %r at p=%d" % (w, u, cfg["primes"][0]), ok)
    elif suite == "duality":
        _guard(tensor.commute_guard(n, d))
        point = _rule(tensor.check_point, *cfg["spec"])
        if not tensor.cert_points(*point):
            raise UsageError("bad request: (v0, t0) = (%s, %s) is not a pair of units "
                             "mod any certification prime of %s" % (*point, linalg.CERT_PRIMES))
        rep.extend(tensor.commute_check(n, d))
        v0, t0s = cfg["spec"]
        if n >= d:
            cert = tensor.certificate(n, d, v0, t0s)
            hdim = tensor.centralizer_dim("hecke", n, d, v0, t0s)
            expect = math.comb(n * n + d - 1, d)
            rep.add("flag-side commutant dimension %d" % hdim, hdim == expect)
            rep.note("lower %d (span of generator words), upper %d (modular nullity), p=%d"
                     % (*cert.hecke, cert.prime))
            udim = tensor.centralizer_dim("uvt", n, d, v0, t0s)
            rep.add("hecke-side commutant dimension %d" % udim, udim == math.factorial(d))
            rep.note("lower %d (span of Hecke words), upper %d (modular nullity), p=%d"
                     % (*cert.uvt, cert.prime))
            rank = tensor.surjectivity_rank(n, d, v0, t0s)
            rep.add("generator-word image rank %d" % rank, rank == expect)
            rep.note("word closure: %d rounds" % cert.rounds)
    elif suite == "uvt":
        _guard(tensor.catalog_guard(n, d))
        rep.extend(uvt.verify_all(n, d, star=False))
        rep.extend(uvt.t1_specialization_check(n))
        rep.extend(uvt.hopf_checks(n, min(d, 3)))
    elif suite == "star":
        _guard(tensor.catalog_guard(n, d))
        rep.extend(uvt.verify_all(n, d, star=True))
        rep.add("twist exponent identity n=%d" % n, uvt.exponent_identity_holds(n))
        rep.add("star associativity sample", uvt.star_associativity_sample(n))
    elif suite == "stab":
        if cfg["window"] < 3:
            raise UsageError("bad request: stab needs window >= 3, got %d" % cfg["window"])
        _guard(stab.over_guard(n, cfg["window"]))
        window, witnesses = stab.WeightWindow(cfg["window"], 2), {}
        checks, skipped = stab.limit_relation_suite(n, window, witnesses)
        rep.extend(checks, witnesses)
        rep.add("boundary terms skipped: %d" % skipped, True)
        rep.extend(stab.generator_transport_suite(n, window, witnesses), witnesses)
    elif suite == "jparity-tilde":
        _guard(tensor.catalog_guard(n, d))
        _rule(jparity.check_cut, suite, m, n)
        rep.extend(jparity.verify_tilde_relations(n, d, m))
    elif suite == "jparity-hat":
        _guard(tensor.catalog_guard(n, d))
        _rule(jparity.check_cut, suite, m, n, 2)
        rep.extend(jparity.verify_hat_relations(n, d, m))
    elif suite == "descend":
        _guard(tensor.catalog_guard(n, d), galois.descent_guard(d))
        rep.add("sigma involutive", galois.sigma_involutive(n, d))
        rep.extend(galois.equivariance_check(n, d))
        rep.extend(galois.descent_suite(n, d))
        _elt, rs = hecke.quadratic_certificate(1, max(d, 2))
        cert = "T^2 %r T %r 1 %r" % (rs["T^2"], rs["T"], rs["1"])
        rep.add("hecke quadratic certificate (r,s) coefficients: %s" % cert, not _elt)
    elif suite == "oracle":
        _guard(*(flags.over_guard(p, d, n) for p in cfg["primes"]))
        for p in cfg["primes"]:
            _rule(flags.check_prime, p)
        for B, A, ok in schur.oracle_compare(n, d, tuple(cfg["primes"])):
            rep.add("pair B=%r A=%r" % (B, A), ok)
        for p in cfg["primes"][:2]:
            xy = flags.orbit_types(p, d, n, ("X", "Y"))
            yy = flags.orbit_types(p, d, n, ("Y", "Y"))
            rep.add("orbit count X*Y = n^d at p=%d" % p, len(xy) == n ** d)
            rep.add("orbit count Y*Y = d! at p=%d" % p, len(yy) == math.factorial(d))
    else:
        raise ValueError("unknown suite %r" % (suite,))
    rep.elapsed = time.time() - t0
    return rep


def verify_config(args):
    """The run_suite configuration of parsed `verify` arguments, with the
    suite's DEFAULT_N (2 if it has none) when --n is not given."""
    return {
        "n": DEFAULT_N.get(args.suite, 2) if args.n is None else args.n,
        "d": args.d,
        "m": args.m,
        "primes": args.primes,
        "window": args.window,
        "spec": args.spec,
    }


def cmd_verify(args):
    rep = run_suite(args.suite, verify_config(args))
    _emit(rep.to_json() if args.format == "json" else rep.to_text(), args.out)
    return 0 if rep.passed else 1


def _emit(text, path):
    """Write text to path, or to stdout without one; UsageError when path
    cannot be written."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# what reading a document of the wrong shape raises: a schema error, exit 2
SCHEMA_ERRORS = (KeyError, ValueError, TypeError, AttributeError, OSError)


def cmd_mult(args):
    read = hecke.from_json if args.algebra == "hecke" else schur.from_json
    try:
        lhs, rhs = read(_load_json(args.lhs)), read(_load_json(args.rhs))
    except SCHEMA_ERRORS as exc:
        raise UsageError("schema error: %s" % exc) from None
    if args.algebra == "hecke":
        (x, dx), (y, dy) = lhs, rhs
        if dx != dy:
            raise UsageError("degree mismatch: %d vs %d" % (dx, dy))
        out = hecke.to_json(hecke.hecke_mul(x, y), dx)
    else:
        (x, n, d), (y, n2, d2) = lhs, rhs
        if (n, d) != (n2, d2):
            raise UsageError("size mismatch: %r vs %r" % ((n, d), (n2, d2)))
        try:
            prod = schur.chev_mul(x, y)
        except ValueError:
            if n < d:
                raise UsageError("bad request: general products need n >= d") from None
            prod = schur.product_via_operators(x, y, n, d)
        out = schur.to_json(prod, n, d)
    _emit(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    return 0


def cmd_stab_fit(args):
    try:
        doc = _load_json(args.pair)
        A1, A2 = (tuple(tuple(map(laurent.json_int, row)) for row in doc[k]) for k in ("A1", "A2"))
        if not A1 or len(A2) != len(A1) or any(len(row) != len(A1) for row in A1 + A2):
            raise ValueError("A1 and A2 must be square matrices of one size")
    except SCHEMA_ERRORS as exc:
        raise UsageError("schema error: %s" % exc) from None
    try:
        fit = _rule(stab.stabilization_check, A1, A2, tuple(args.plist))
    except stab.FitInconsistent as exc:
        print("fit inconsistent: %s" % exc, file=sys.stderr)
        return 1
    out = {
        "schema": 1,
        "plist": list(args.plist),
        "patterns": [
            {
                "z": [list(r) for r in z],
                "terms": [
                    {"v": a, "t": b, "vp": k, "tp": l,
                     "num": g.numerator, "den": g.denominator}
                    for (a, b, k, l), g in sorted(pat.items())
                ],
            }
            for z, pat in sorted(fit.items())
        ],
    }
    sys.stdout.write(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def parse_primes(text):
    primes = tuple(int(x) for x in text.split(","))
    if not primes:
        raise argparse.ArgumentTypeError("need at least one prime")
    return primes


def parse_spec(text):
    from fractions import Fraction

    v0, t0 = text.split(",")
    try:
        return (Fraction(v0), Fraction(t0))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("zero denominator in %r" % text) from None


def build_parser():
    ap = argparse.ArgumentParser(prog="vtschur", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int)
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--primes", type=parse_primes, default=(3, 5, 7))
        p.add_argument("--window", type=int, default=4)
        p.add_argument("--spec", type=parse_spec, default=(2, 3))
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("mult", help="multiply two serialized elements")
    pm.add_argument("--algebra", choices=("schur", "hecke"), default="schur")
    pm.add_argument("--lhs", required=True)
    pm.add_argument("--rhs", required=True)
    pm.add_argument("--out")
    pm.set_defaults(func=cmd_mult)

    pf = sub.add_parser("stab-fit", help="fit the shifted-product pattern of a pair")
    pf.add_argument("--pair", required=True, help="JSON file with matrices A1, A2")
    pf.add_argument("--plist", type=lambda s: [int(x) for x in s.split(",")], default=[3, 4, 5])
    pf.set_defaults(func=cmd_stab_fit)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, flags.GuardExceeded) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
