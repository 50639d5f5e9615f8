"""Command-line front end: verification suites, products, oracle runs.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
schema errors or an --out path that cannot be written (argparse errors
already exit with 2).  Set VTSCHUR_ALLOW_LARGE=1 to lift every guard of
every suite, at your own expense.
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


class BadRequest(ValueError):
    """Parameters outside a suite's domain: a usage error, exit code 2."""


def _over_guard(suite, cfg):
    """The guard limit that a suite's parameters exceed, as text, or None."""
    n, d = cfg["n"], cfg["d"]
    if suite in ("oracle", "hecke"):  # every listed prime, before any primality test
        steps = n if suite == "oracle" else d
        return next(filter(None, (flags.over_guard(p, d, steps) for p in cfg["primes"])), None)
    if suite == "duality":
        return tensor.commute_guard(n, d)
    if suite == "stab":
        return stab.over_guard(n, cfg["window"])


def check_request(suite, cfg, large=False):
    """The guards' only judge: raise BadRequest when a suite's parameters are out
    of its domain, and, unless large, GuardExceeded past its guard (before any primality test)."""
    n, d = cfg["n"], cfg["d"]
    if n < 1 or d < 0:
        raise BadRequest("need n >= 1 and d >= 0, got n=%d d=%d" % (n, d))
    if suite == "stab" and cfg["window"] < 3:
        raise BadRequest("stab needs window >= 3, got %d" % cfg["window"])
    over = None if large else _over_guard(suite, cfg)
    if over:
        raise flags.GuardExceeded(over + "; set VTSCHUR_ALLOW_LARGE=1 to lift it")
    # below these degrees the printed variants hold trivially, so their
    # expect-fail checks could not be refuted
    low = {"schur": 1, "jparity-tilde": 1, "jparity-hat": 2}.get(suite, 0)
    if d < low:
        raise BadRequest("%s needs d >= %d, got d=%d" % (suite, low, d))
    try:
        if suite in ("hecke", "oracle"):
            for p in cfg["primes"]:
                flags.check_prime(p)
        if suite == "duality":
            point = tensor.check_point(*cfg["spec"])
            if not tensor.cert_points(*point):
                raise ValueError("(v0, t0) = (%s, %s) is not a pair of units mod any "
                                 "certification prime of %s" % (*point, linalg.CERT_PRIMES))
        if suite in ("jparity-tilde", "jparity-hat"):
            jparity.check_cut(suite, cfg["m"], n, 2 if suite == "jparity-hat" else 1)
    except ValueError as exc:
        raise BadRequest(str(exc)) from None


def run_suite(suite, cfg):
    n, d, m = cfg["n"], cfg["d"], cfg["m"]
    check_request(suite, cfg, os.environ.get("VTSCHUR_ALLOW_LARGE", "") == "1")
    rep = Report(suite=suite, config=cfg)
    t0 = time.time()
    if suite == "schur":
        rep.extend(schur.verify_relations(n, d))
    elif suite == "hecke":
        rep.extend(hecke.verify_hecke(d))
        for w, u, ok in hecke.geometric_structure_match(d, cfg["primes"][0]):
            rep.add("geometric %r %r at p=%d" % (w, u, cfg["primes"][0]), ok)
    elif suite == "duality":
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
        rep.extend(uvt.verify_all(n, d, star=False))
        rep.extend(uvt.t1_specialization_check(n))
        rep.extend(uvt.hopf_checks(n, min(d, 3)))
    elif suite == "star":
        rep.extend(uvt.verify_all(n, d, star=True))
        rep.add("twist exponent identity n=%d" % n, uvt.exponent_identity_holds(n))
        rep.add("star associativity sample", uvt.star_associativity_sample(n))
    elif suite == "stab":
        window, witnesses = stab.WeightWindow(cfg["window"], 2), {}
        checks, skipped = stab.limit_relation_suite(n, window, witnesses)
        rep.extend(checks, witnesses)
        rep.add("boundary terms skipped: %d" % skipped, True)
        rep.extend(stab.generator_transport_suite(n, window, witnesses), witnesses)
    elif suite == "jparity-tilde":
        rep.extend(jparity.verify_tilde_relations(n, d, m))
    elif suite == "jparity-hat":
        rep.extend(jparity.verify_hat_relations(n, d, m))
    elif suite == "descend":
        rep.add("sigma involutive", galois.sigma_involutive(n, d))
        rep.extend(galois.equivariance_check(n, d))
        rep.extend(galois.descent_suite(n, d))
        _elt, rs = hecke.quadratic_certificate(1, max(d, 2))
        cert = "T^2 %r T %r 1 %r" % (rs["T^2"], rs["T"], rs["1"])
        rep.add("hecke quadratic certificate (r,s) coefficients: %s" % cert, not _elt)
    elif suite == "oracle":
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


def cmd_verify(args):
    cfg = {
        "n": args.n,
        "d": args.d,
        "m": args.m,
        "primes": args.primes,
        "window": args.window,
        "spec": args.spec,
    }
    try:
        rep = run_suite(args.suite, cfg)
    except flags.GuardExceeded as exc:
        print("guard exceeded: %s" % exc, file=sys.stderr)
        return 2
    except BadRequest as exc:
        print("bad request: %s" % exc, file=sys.stderr)
        return 2
    text = rep.to_json() if args.format == "json" else rep.to_text()
    if not _emit(text, args.out):
        return 2
    return 0 if rep.passed else 1


def _emit(text, path):
    """Write text to path, or to stdout without one; False, with the reason
    on stderr, when path cannot be written."""
    if not path:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print("cannot write %s: %s" % (path, exc.strerror or exc), file=sys.stderr)
        return False
    return True


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
        print("schema error: %s" % exc, file=sys.stderr)
        return 2
    if args.algebra == "hecke":
        (x, dx), (y, dy) = lhs, rhs
        if dx != dy:
            print("degree mismatch: %d vs %d" % (dx, dy), file=sys.stderr)
            return 2
        out = hecke.to_json(hecke.hecke_mul(x, y), dx)
    else:
        (x, n, d), (y, n2, d2) = lhs, rhs
        if (n, d) != (n2, d2):
            print("size mismatch: %r vs %r" % ((n, d), (n2, d2)), file=sys.stderr)
            return 2
        try:
            prod = schur.chev_mul(x, y)
        except ValueError:
            if n < d:
                print("bad request: general products need n >= d", file=sys.stderr)
                return 2
            prod = schur.product_via_operators(x, y, n, d)
        out = schur.to_json(prod, n, d)
    text = json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"
    return 0 if _emit(text, args.out) else 2


def cmd_stab_fit(args):
    try:
        doc = _load_json(args.pair)
        A1, A2 = (tuple(tuple(map(laurent.json_int, row)) for row in doc[k]) for k in ("A1", "A2"))
        if not A1 or len(A2) != len(A1) or any(len(row) != len(A1) for row in A1 + A2):
            raise ValueError("A1 and A2 must be square matrices of one size")
    except SCHEMA_ERRORS as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return 2
    try:
        fit = stab.stabilization_check(A1, A2, tuple(args.plist))
    except stab.FitInconsistent as exc:
        print("fit inconsistent: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("bad request: %s" % exc, file=sys.stderr)
        return 2
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
        p.add_argument("--n", type=int, default=2)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
