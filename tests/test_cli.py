import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from vtschur import cli, hecke, laurent, schur


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
    x = schur.to_json(schur.gen_E(1, 2, 2), 2, 2)
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(json.dumps(one))
    rhs.write_text(json.dumps(x))
    code, out, _ = run_cli(["mult", "--lhs", str(lhs), "--rhs", str(rhs)])
    assert code == 0
    got, n, d, _basis = schur.from_json(json.loads(out))
    assert got == schur.gen_E(1, 2, 2)


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
])
def test_bad_request_exit_2(args):
    code, _, err = run_cli(args)
    assert code == 2
    assert "bad request" in err


def test_default_report_json_bytes_pinned():
    args = cli.build_parser().parse_args(["verify", "duality"])
    cfg = {k: getattr(args, k) for k in ("n", "d", "m", "primes", "window", "spec")}
    text = cli.run_suite("duality", cfg).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4475bb486583b21c457f4e0eff7bb215e57005aa9ead6d5affc11e67dc174437"
    code, out, _ = run_cli(["verify", "duality", "--spec", "2,3", "--format", "json"])
    assert code == 0 and out == text


def test_fraction_spec_round_trips_through_json():
    code, out, _ = run_cli(["verify", "duality", "--spec", "1/2,3", "--format", "json"])
    assert code == 0
    spec = json.loads(out)["config"]["spec"]
    assert spec == ["1/2", 3]
    assert cli.parse_spec(",".join(str(x) for x in spec)) == (Fraction(1, 2), Fraction(3))
