import hashlib
import json
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from vtschur import cli, flags, hecke, laurent, schur


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "vtschur.cli"] + args,
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_duality_passes():
    code, out, _ = run_cli(["verify", "duality", "--n", "2", "--d", "2"])
    assert code == 0
    assert "PASS" in out


def test_unknown_suite_usage_error():
    code, _, err = run_cli(["verify", "nosuch"])
    assert code == 2


def test_json_determinism():
    args = ["verify", "oracle", "--n", "2", "--d", "1", "--primes", "3,5", "--format", "json"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1 and doc["passed"]


def test_verify_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "hecke", "--d", "3", "--primes", "3",
                          "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "hecke" and doc["passed"]


def test_mult_hecke(tmp_path):
    t1 = hecke.to_json(hecke.Ti(2, 1), 2)
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(json.dumps(t1))
    rhs.write_text(json.dumps(t1))
    code, out, _ = run_cli(["mult", "--algebra", "hecke",
                            "--lhs", str(lhs), "--rhs", str(rhs)])
    assert code == 0
    doc = json.loads(out)
    expect, _d = hecke.from_json(doc)
    assert expect == hecke.mul_Ti(hecke.Ti(2, 1), 1)


def test_mult_schur_unit(tmp_path):
    one = schur.to_json(schur.unit(2, 2), 2, 2)
    x = schur.to_json(schur.gen_elt(("E", 1), 2, 2), 2, 2)
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(json.dumps(one))
    rhs.write_text(json.dumps(x))
    code, out, _ = run_cli(["mult", "--lhs", str(lhs), "--rhs", str(rhs)])
    assert code == 0
    got, n, d = schur.from_json(json.loads(out))
    assert got == schur.gen_elt(("E", 1), 2, 2)


def test_mult_incompatible_exit_2(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(hecke.to_json(hecke.Ti(2, 1), 2)))
    b.write_text(json.dumps(hecke.to_json(hecke.Ti(3, 1), 3)))
    code, _, err = run_cli(["mult", "--algebra", "hecke", "--lhs", str(a), "--rhs", str(b)])
    assert code == 2
    assert "mismatch" in err


def test_stab_fit(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"A1": [[0, 1], [0, 0]], "A2": [[0, 0], [1, 0]]}))
    code, out, _ = run_cli(["stab-fit", "--pair", str(pair), "--plist", "3,4,5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["patterns"]


def test_failing_suite_exits_1(monkeypatch):
    # direct invocation with a doctored check list
    from vtschur.report import Report

    rep = Report(suite="x", config={})
    rep.add("broken", False)
    assert not rep.passed


def test_guard_exceeded_exit_2():
    code, _, err = run_cli(["verify", "oracle", "--n", "2", "--d", "2", "--primes", "11,13"])
    assert code == 2
    assert "guard" in err.lower()


@pytest.mark.parametrize("args", [
    ["verify", "duality", "--spec", "1,1"],
    ["verify", "hecke", "--d", "2", "--primes", "4"],
    ["verify", "jparity-hat", "--n", "2", "--d", "2", "--m", "1"],
    ["verify", "stab", "--window", "0"],
    ["verify", "stab", "--window", "1"],
    ["verify", "stab", "--window", "2"],
    ["verify", "schur", "--n", "0"],
    ["verify", "star", "--n", "0"],
    ["verify", "duality", "--d", "-1"],
    # the printed variants hold trivially below these degrees
    ["verify", "schur", "--d", "0"],
    ["verify", "jparity-tilde", "--n", "2", "--d", "0"],
    ["verify", "jparity-hat", "--n", "3", "--d", "0"],
    ["verify", "jparity-hat", "--n", "3", "--d", "1"],
])
def test_bad_request_exit_2(args):
    code, _, err = run_cli(args)
    assert code == 2
    assert "bad request" in err


@pytest.mark.parametrize("algebra,doc", [
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
               "terms": [{"matrix": [[1, 1], [1, 0]], "poly": [[0, 0, 1, 1]]}]}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
               "terms": [{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0]], "poly": [[0, 0, 1, 1]]}]}),
    ("hecke", {"schema": 1, "algebra": "hecke", "d": 2,
               "terms": [{"perm": [0, 0], "poly": [[0, 0, 1, 1]]}]}),
    # wrong shapes, not only wrong values
    ("hecke", {"schema": 1, "algebra": "hecke", "d": 2, "terms": 5}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
               "terms": [{"matrix": 5, "poly": [[0, 0, 1, 1]]}]}),
    ("schur", [1, 2]),
    # only braced coefficients are read; another basis is not relabelled
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2, "basis": "e",
               "terms": [{"matrix": [[1, 1], [0, 0]], "poly": [[0, 0, 1, 1]]}]}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2, "basis": "nonsense",
               "terms": [{"matrix": [[1, 1], [0, 0]], "poly": [[0, 0, 1, 1]]}]}),
    # a zero denominator, non-integer numbers, repeated keys
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
               "terms": [{"matrix": [[1, 1], [0, 0]], "poly": [[0, 0, 1, 0]]}]}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
               "terms": [{"matrix": [[1, 1], [0, 0]], "poly": [[0.5, 0, 1, 1]]}]}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
               "terms": [{"matrix": [[1.4, 0], [0, 1]], "poly": [[0, 0, 1, 1]]}]}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2.0, "d": 2,
               "terms": [{"matrix": [[1, 1], [0, 0]], "poly": [[0, 0, 1, 1]]}]}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
               "terms": [{"matrix": [[1, 1], [0, 0]], "poly": [[0, 0, 1, 1], [0, 0, 3, 1]]}]}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": 2,
               "terms": [{"matrix": [[1, 1], [0, 0]], "poly": [[0, 0, 1, 1]]},
                         {"matrix": [[1, 1], [0, 0]], "poly": [[0, 0, 3, 1]]}]}),
    ("hecke", {"schema": 1, "algebra": "hecke", "d": 2,
               "terms": [{"perm": [1, 0], "poly": [[0, 0, 1, 1]]},
                         {"perm": [1, 0], "poly": [[0, 0, 3, 1]]}]}),
    ("hecke", {"schema": 1, "algebra": "hecke", "d": 2,
               "terms": [{"perm": [1.0, 0], "poly": [[0, 0, 1, 1]]}]}),
])
def test_mult_malformed_element_exit_2(tmp_path, algebra, doc):
    bad = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    bad.write_text(json.dumps(doc))
    unit = schur.to_json(schur.unit(2, 2), 2, 2) if algebra == "schur" else hecke.to_json(hecke.unit(2), 2)
    good.write_text(json.dumps(unit))
    code, out, err = run_cli(["mult", "--algebra", algebra, "--lhs", str(good), "--rhs", str(bad)])
    assert code == 2 and not out
    assert "schema error" in err


# sha256 of run_suite(...).to_json(), one cheap configuration per suite;
# refactors of the algebra kernels must leave every report byte-identical
PINNED_REPORTS = [
    ("schur", {"n": 3, "d": 3},
     "2f60adb46733a7aa8f1e0c9af9c1563b5a3f1124e1e1642b43cdd7a514a9ea0b"),
    ("hecke", {"d": 3, "primes": (3,)},
     "b685239a35c030c82265dee464fda20490b18f764ef67785de6afeb69d107d87"),
    ("duality", {},
     "4475bb486583b21c457f4e0eff7bb215e57005aa9ead6d5affc11e67dc174437"),
    ("uvt", {"n": 2, "d": 3},
     "bc44be223dfb69076f7668754160a7b41efb60c1ebccdd2d89fa76b25134ce58"),
    ("star", {"n": 3},
     "c8823e1f2187da067fa8e2b1057d2f452d0fa084b70a015c79c2c6d81d1a7ed3"),
    ("stab", {"window": 3},
     "287e0c1e4701dc972781311813e38369e8d50fe290458ecb1157d5353884af24"),
    ("jparity-tilde", {"n": 3, "d": 3, "m": 2},
     "feec49a26ac30566d4a958c7a7b5f01ff544ec92b822dc3ac8edc523ad7c9a73"),
    ("jparity-hat", {"n": 3},
     "3ce0465c60af012344d779de62fc8190a3c3116fdfda1d4edaa1ee825b7542c9"),
    ("descend", {"n": 3},
     "0f34e120839e63a2bcaa41415498c45c69912ef278a0af21173c0996751dc5a4"),
    ("oracle", {"n": 3, "primes": (3,)},
     "f585cf64e883518c3894137daa9812086a6e485c8d4aabfd51ac631d5b1dd7c6"),
]


def default_config(suite="duality"):
    args = cli.build_parser().parse_args(["verify", suite])
    return {k: getattr(args, k) for k in ("n", "d", "m", "primes", "window", "spec")}


def test_default_report_json_bytes_pinned():
    for suite, over, digest in PINNED_REPORTS:
        cfg = dict(default_config(suite), **over)
        text = cli.run_suite(suite, cfg).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, suite
    text = cli.run_suite("duality", default_config()).to_json()
    code, out, _ = run_cli(["verify", "duality", "--spec", "2,3", "--format", "json"])
    assert code == 0 and out == text


@pytest.mark.parametrize("suite,over", [
    ("duality", {"n": 5, "d": 1}),
    ("oracle", {"n": 2, "d": 1, "primes": (11,)}),
    ("hecke", {"d": 2, "primes": (11,)}),
])
def test_allow_large_lifts_the_guards(monkeypatch, suite, over):
    cfg = dict(default_config(suite), **over)
    monkeypatch.delenv("VTSCHUR_ALLOW_LARGE", raising=False)
    with pytest.raises(flags.GuardExceeded):
        cli.run_suite(suite, cfg)
    monkeypatch.setenv("VTSCHUR_ALLOW_LARGE", "1")
    with warnings.catch_warnings(record=True):  # lifted flag guards warn
        warnings.simplefilter("always")
        assert cli.run_suite(suite, cfg).passed


def test_fraction_spec_round_trips_through_json():
    code, out, _ = run_cli(["verify", "duality", "--spec", "1/2,3", "--format", "json"])
    assert code == 0
    spec = json.loads(out)["config"]["spec"]
    assert spec == ["1/2", 3]
    assert cli.parse_spec(",".join(str(x) for x in spec)) == (Fraction(1, 2), Fraction(3))


@pytest.mark.parametrize("doc", [
    {"A1": 5, "A2": [[0, 0], [1, 0]]},
    {"A1": [[0, 1], [0]], "A2": [[0, 0], [1, 0]]},
    {"A1": [[0, 1], [0, 0]], "A2": [[0, 0, 0], [1, 0, 0], [0, 0, 0]]},
    [1, 2],
])
def test_stab_fit_malformed_pair_exit_2(tmp_path, doc):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    code, out, err = run_cli(["stab-fit", "--pair", str(pair)])
    assert code == 2 and not out
    assert "schema error" in err
