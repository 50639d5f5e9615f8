"""Compare the command line of two source trees, run by run.

    python tests/cli_battery.py OLD_TREE NEW_TREE

Runs `python -m vtschur.cli` from each tree (its `src` on PYTHONPATH), one
process at a time, each under a 60 s timeout and a 2 GiB address-space
limit: every `verify` suite over the edge-case argv of EDGES (sizes,
degrees, cut indices, windows, specs, primes, --format json, an unwritable
--out, and argv that meet two rules at once, to pin their order), a few
cheap runs past the guards with VTSCHUR_ALLOW_LARGE=1, and `mult`,
`stab-fit` and usage runs.  Each run's exit code, stdout (with the text
report's elapsed seconds masked) and stderr (with the tree's path masked in
tracebacks) are compared; every run that differs is printed, and the exit
code is 1 if any differs.  The top-level --help is left out: it prints the
module docstring.  Standard library only; pytest does not collect this
file (it starts over a thousand processes).
"""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
import tempfile

SUITES = (
    "schur", "hecke", "duality", "uvt", "star", "stab",
    "jparity-tilde", "jparity-hat", "descend", "oracle",
)
TIMEOUT_S = 60
MEMORY_LIMIT = 2 << 30
BIG_PRIME = "1000000000000000003"


def edges(tmp):
    """The argv that every suite is run with, after `verify SUITE`."""
    return [
        [], ["--format", "json"], ["--out", os.path.join(tmp, "missing", "out")],
        # n and d
        ["--n", "0"], ["--n", "-1"], ["--d", "-1"], ["--d", "0"], ["--d", "1"],
        ["--n", "1"], ["--n", "1", "--d", "1"], ["--n", "3"], ["--n", "4", "--d", "3"],
        ["--n", "5"], ["--n", "9"], ["--n", "5000"], ["--d", "4"], ["--d", "6"], ["--d", "13"],
        # the cut index
        ["--m", "0"], ["--m", "-1"], ["--m", "2"], ["--n", "3", "--m", "2"],
        ["--n", "4", "--m", "2"], ["--n", "4", "--d", "3", "--m", "3"],
        # the stab window
        ["--window", "0"], ["--window", "2"], ["--window", "3"], ["--window", "-5"],
        ["--n", "3", "--window", "3"], ["--n", "5", "--window", "4"], ["--n", "1", "--window", "1201"],
        # the duality spec
        ["--spec", "1,1"], ["--spec", "0,3"], ["--spec", "1/2,3"], ["--spec", "-1,1"],
        ["--spec", "4000064000087,3"], ["--spec", "1/0,3"], ["--spec", "x"], ["--spec", "2,3,4"],
        # primes
        ["--primes", "4"], ["--primes", "2"], ["--primes", "1"], ["--primes", "9,3"],
        ["--primes", "11"], ["--primes", "3,11"], ["--primes", BIG_PRIME],
        ["--primes", "3," + BIG_PRIME], ["--primes", ""], ["--primes", "3,x"],
        # two rules met at once: which one speaks first
        ["--n", "0", "--window", "0"], ["--n", "5", "--window", "2"], ["--n", "9", "--d", "0"],
        ["--n", "5000", "--m", "0"], ["--d", "0", "--primes", "4"], ["--d", "9", "--primes", "4"],
        ["--n", "4", "--spec", "1,1"],
    ]


# cheap runs past a guard, with every guard lifted
LARGE = [
    ["verify", "oracle", "--d", "1", "--primes", "11"],
    ["verify", "hecke", "--d", "2", "--primes", "11"],
    ["verify", "duality", "--n", "5", "--d", "1"],
    ["verify", "stab", "--n", "1", "--window", "1201"],
    ["verify", "schur", "--n", "9"],
    ["verify", "uvt", "--n", "9"],
    ["verify", "jparity-tilde", "--n", "9"],
]


def write_inputs(tmp):
    """JSON documents for mult and stab-fit, by name, as paths in tmp."""
    one = [[0, 0, 1, 1]]
    docs = {
        "schur_unit": {"schema": 1, "algebra": "schur", "n": 2, "d": 2, "terms": [
            {"matrix": m, "poly": one} for m in ([[2, 0], [0, 0]], [[1, 0], [0, 1]], [[0, 0], [0, 2]])]},
        "schur_e": {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
                    "terms": [{"matrix": [[1, 1], [0, 0]], "poly": one}]},
        "schur_general_23": {"schema": 1, "algebra": "schur", "n": 2, "d": 3,
                             "terms": [{"matrix": [[1, 1], [1, 0]], "poly": one}]},
        "schur_general_33": {"schema": 1, "algebra": "schur", "n": 3, "d": 3,
                             "terms": [{"matrix": [[1, 1, 0], [0, 0, 1], [0, 0, 0]], "poly": one}]},
        # general products whose read-off meets Fraction coefficients, n = 4,
        # and (E_12 + E_21 + E_33 at t, plus v^-1 t^2, times a vector that E_1
        # and F_1 kill) terms that cancel to zero
        "schur_frac_33_lhs": {"schema": 1, "algebra": "schur", "n": 3, "d": 3, "terms": [
            {"matrix": [[1, 1, 0], [0, 0, 1], [0, 0, 0]], "poly": [[0, 0, 1, 2], [1, -1, -2, 3]]},
            {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]], "poly": [[0, 1, 3, 1]]}]},
        "schur_frac_33_rhs": {"schema": 1, "algebra": "schur", "n": 3, "d": 3, "terms": [
            {"matrix": [[0, 0, 1], [1, 0, 0], [0, 1, 0]], "poly": [[1, 0, -1, 4]]},
            {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "poly": [[0, 0, 5, 7], [-1, 1, 1, 1]]},
            {"matrix": [[0, 1, 0], [0, 0, 1], [0, 0, 1]], "poly": one}]},
        "schur_43_lhs": {"schema": 1, "algebra": "schur", "n": 4, "d": 3, "terms": [
            {"matrix": [[0, 1, 0, 1], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], "poly": one},
            {"matrix": [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], "poly": [[1, 0, -1, 2]]}]},
        "schur_43_rhs": {"schema": 1, "algebra": "schur", "n": 4, "d": 3, "terms": [
            {"matrix": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]], "poly": [[0, 0, 1, 1], [0, 1, 2, 1]]},
            {"matrix": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]], "poly": [[0, -1, -3, 1]]},
            {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]], "poly": one}]},
        "schur_cancel_33_lhs": {"schema": 1, "algebra": "schur", "n": 3, "d": 3, "terms": [
            {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]], "poly": [[0, 1, 1, 1]]},
            {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "poly": [[-1, 2, 1, 1]]}]},
        "schur_cancel_33_rhs": {"schema": 1, "algebra": "schur", "n": 3, "d": 3, "terms": [
            {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]], "poly": [[0, 0, 2, 3]]},
            {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "poly": [[1, 1, -2, 3]]}]},
        "hecke_t1": {"schema": 1, "algebra": "hecke", "d": 2, "terms": [{"perm": [1, 0], "poly": one}]},
        "hecke_t1_d3": {"schema": 1, "algebra": "hecke", "d": 3, "terms": [{"perm": [1, 0, 2], "poly": one}]},
        "malformed": {"schema": 1, "algebra": "schur", "n": 2, "d": 2, "terms": 5},
        "pair": {"A1": [[0, 1], [0, 0]], "A2": [[0, 0], [1, 0]]},
        "pair_negative": {"A1": [[0, -1], [0, 0]], "A2": [[0, 0], [0, 1]]},
        "pair_malformed": {"A1": [[0, 1], [0]], "A2": [[0, 0], [1, 0]]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(tmp, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    paths["missing"] = os.path.join(tmp, "no_such_file.json")
    return paths


def other_runs(tmp):
    f = write_inputs(tmp)

    def mult(lhs, rhs, *extra):
        return ["mult", "--lhs", f[lhs], "--rhs", f[rhs], *extra]

    return [
        mult("schur_unit", "schur_e"),
        mult("schur_general_33", "schur_general_33"),
        mult("schur_general_23", "schur_general_23"),
        mult("schur_e", "schur_general_23"),
        mult("schur_frac_33_lhs", "schur_frac_33_rhs"),
        mult("schur_43_lhs", "schur_43_rhs"),
        mult("schur_cancel_33_lhs", "schur_cancel_33_rhs"),
        mult("schur_e", "malformed"),
        mult("schur_e", "missing"),
        mult("schur_e", "schur_e", "--out", os.path.join(tmp, "missing", "out")),
        mult("hecke_t1", "hecke_t1", "--algebra", "hecke"),
        mult("hecke_t1", "hecke_t1_d3", "--algebra", "hecke"),
        ["stab-fit", "--pair", f["pair"]],
        ["stab-fit", "--pair", f["pair"], "--plist", "5,5,5"],
        ["stab-fit", "--pair", f["pair_negative"]],
        ["stab-fit", "--pair", f["pair_malformed"]],
        ["stab-fit", "--pair", f["missing"]],
        [], ["verify"], ["verify", "nosuch"], ["verify", "schur", "--n", "x"],
        ["verify", "schur", "--format", "xml"], ["verify", "--help"], ["mult"],
    ]


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(tree, argv, env_extra, cwd):
    """(exit code or 'timeout', masked stdout, masked stderr) of one run."""
    env = {k: v for k, v in os.environ.items() if k != "VTSCHUR_ALLOW_LARGE"}
    env.update(PYTHONPATH=os.path.join(tree, "src"), **env_extra)
    try:
        proc = subprocess.run([sys.executable, "-m", "vtschur.cli", *argv], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=TIMEOUT_S,
                              preexec_fn=limit_memory)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = "timeout", "", ""
    out = re.sub(r"^(suite \S+: \w+) \(\d+\.\d+s\)", r"\1 (_s)", out, flags=re.M)
    return code, out, err.replace(os.path.abspath(tree), "<tree>")


def main(argv):
    if len(argv) != 2:
        print("usage: python tests/cli_battery.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    old, new = argv
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(["verify", suite, *edge], {}) for suite in SUITES for edge in edges(tmp)]
        runs += [(args, {"VTSCHUR_ALLOW_LARGE": "1"}) for args in LARGE]
        runs += [(args, {}) for args in other_runs(tmp)]
        differ = 0
        for args, extra in runs:
            a, b = run(old, args, extra, tmp), run(new, args, extra, tmp)
            if a != b:
                differ += 1
                shown = " ".join(args).replace(tmp, "<tmp>")
                print("DIFFER %s%s" % ("VTSCHUR_ALLOW_LARGE=1 " if extra else "", shown))
                for tag, (code, out, err) in (("old", a), ("new", b)):
                    print("  %s: exit %s, %d bytes of stdout, stderr %r"
                          % (tag, code, len(out), err.strip().splitlines()[-1:]))
        print("%d runs, %d differ" % (len(runs), differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
