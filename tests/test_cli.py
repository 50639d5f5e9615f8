import hashlib
import json
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from vtschur import cli, flags, galois, hecke, jparity, laurent, schur, stab, tensor, uvt


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


@pytest.mark.parametrize("command", ["verify", "mult"])
def test_unwritable_out_exit_2(tmp_path, command):
    x = tmp_path / "x.json"
    x.write_text(json.dumps(schur.to_json(schur.gen_elt(("E", 1), 2, 2), 2, 2)))
    bad = tmp_path / "missing" / "out"
    args = (["verify", "schur"] if command == "verify"
            else ["mult", "--lhs", str(x), "--rhs", str(x)])
    code, out, err = run_cli(args + ["--out", str(bad)])
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.startswith("cannot write %s: " % bad)


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


@pytest.mark.parametrize("plist", ["5,5,5", "5,5,6"])
def test_stab_fit_repeated_shifts_exit_2(tmp_path, plist):
    # three shifts must be three distinct values: a repeat is a usage error,
    # not a failed fit (5,5,5 exited 1) nor a fit from two shifts (5,5,6 exited 0)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"A1": [[0, 1], [0, 0]], "A2": [[0, 0], [1, 0]]}))
    code, out, err = run_cli(["stab-fit", "--pair", str(pair), "--plist", plist])
    assert code == 2 and not out
    assert "bad request: need at least three distinct shift values" in err


def test_failing_suite_exits_1(monkeypatch, capsys):
    # a failed check, or an expect-fail check that holds, fails the suite:
    # verify exits 1 and the text report marks that one check FAIL
    real = schur.verify_relations
    for planted in (("broken", False), ("expect-fail planted", True)):
        monkeypatch.setattr(schur, "verify_relations", lambda n, d: real(n, d) + [planted])
        assert cli.main(["verify", "schur", "--n", "2", "--d", "2"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("suite schur: FAIL")
        assert [line for line in out.splitlines() if "[FAIL]" in line] == ["  [FAIL] " + planted[0]]


def test_guard_exceeded_exit_2():
    code, _, err = run_cli(["verify", "oracle", "--n", "2", "--d", "2", "--primes", "11,13"])
    assert code == 2
    assert "guard" in err.lower()


@pytest.mark.parametrize("suite", ["hecke", "oracle"])
def test_large_prime_meets_the_guard_before_the_primality_test(suite):
    # trial division of this 19-digit prime runs for minutes, also when it
    # is listed after a prime that the suite runs at
    for primes in ("1000000000000000003", "3,1000000000000000003"):
        start = time.monotonic()
        code, out, err = run_cli(["verify", suite, "--primes", primes])
        assert time.monotonic() - start < 1.0
        assert code == 2 and not out and "guard exceeded" in err


@pytest.mark.parametrize("args", [
    ["verify", "oracle", "--d", "4"],
    ["verify", "hecke", "--d", "4"],
    ["verify", "duality", "--n", "5"],
    ["verify", "stab", "--n", "5"],
    ["verify", "oracle", "--n", "5"],
])
def test_guard_messages_name_the_environment_switch(args):
    code, out, err = run_cli(args)
    assert code == 2 and not out
    assert "guard exceeded" in err and "VTSCHUR_ALLOW_LARGE=1" in err and "allow_large" not in err


def test_stab_window_guard_exit_2():
    # (2W + 1)^n = 9^5 = 59,049 diagonals per window element, over 2,401
    code, out, err = run_cli(["verify", "stab", "--n", "5", "--window", "4"])
    assert code == 2 and not out
    assert "guard exceeded" in err and "59049" in err and "VTSCHUR_ALLOW_LARGE" in err


def test_stab_guard_states_a_huge_size_without_printing_it():
    # 9^5000 has 4,772 digits, past the limit of int-to-str conversion
    code, out, err = run_cli(["verify", "stab", "--n", "5000"])
    assert code == 2 and not out
    assert "guard exceeded" in err and "9^5000" in err and "Traceback" not in err


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


@pytest.mark.parametrize("suite,n,least", [("jparity-hat", 2, 3), ("jparity-tilde", 1, 2)])
def test_jparity_without_any_m_names_the_bound_on_n(suite, n, least):
    code, out, err = run_cli(["verify", suite, "--n", str(n), "--d", "2", "--m", "1"])
    assert code == 2 and not out
    assert "bad request" in err and "%s needs n >= %d, got n=%d" % (suite, least, n) in err
    assert "<=" not in err


def test_verify_defaults_to_the_least_n_each_suite_accepts():
    # jparity-hat needs n >= m + 2 = 3 at the default --m 1; every other
    # suite runs at n = 2
    code, out, err = run_cli(["verify", "jparity-hat"])
    assert code == 0 and "PASS" in out and not err
    code, out, err = run_cli(["verify", "jparity-hat", "--format", "json"])
    assert code == 0 and json.loads(out)["config"]["n"] == 3
    assert out == run_cli(["verify", "jparity-hat", "--n", "3", "--format", "json"])[1]
    code, out, err = run_cli(["verify", "jparity-tilde", "--format", "json"])
    assert code == 0 and json.loads(out)["config"]["n"] == 2


@pytest.mark.parametrize("spec", ["4000064000087,3", "1/4000064000087,3"])
def test_spec_without_a_certification_prime_exit_2(spec):
    # 4000064000087 = 2000003 * 2000029: v0 is no unit mod either certification prime
    code, out, err = run_cli(["verify", "duality", "--spec", spec])
    assert code == 2 and not out
    assert "bad request" in err and "(2000003, 2000029)" in err


def test_duality_text_report_shows_the_certificate():
    cfg = {"n": 3, "d": 2, "m": 1, "primes": (3, 5, 7), "window": 4, "spec": (2, 3)}
    rep = cli.run_suite("duality", cfg)
    lines = rep.to_text().splitlines()
    at = lines.index("  [ok] flag-side commutant dimension 45")
    assert lines[at + 1:at + 6] == [
        "        lower 45 (span of generator words), upper 45 (modular nullity), p=2000003",
        "  [ok] hecke-side commutant dimension 2",
        "        lower 2 (span of Hecke words), upper 2 (modular nullity), p=2000003",
        "  [ok] generator-word image rank 45",
        "        word closure: 4 rounds",
    ]
    assert "nullity" not in rep.to_json()


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


@pytest.mark.parametrize("algebra,doc", [
    ("schur", {"schema": 1, "algebra": "schur", "n": -1, "d": -2, "terms": []}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 0, "d": 0, "terms": []}),
    ("schur", {"schema": 1, "algebra": "schur", "n": 2, "d": -1, "terms": []}),
    ("hecke", {"schema": 1, "algebra": "hecke", "d": True, "terms": []}),
    ("hecke", {"schema": 1, "algebra": "hecke", "d": -1, "terms": []}),
])
def test_mult_bad_sizes_exit_2(tmp_path, algebra, doc):
    # sizes that verify rejects are rejected on read, on both sides alike
    x = tmp_path / "x.json"
    x.write_text(json.dumps(doc))
    code, out, err = run_cli(["mult", "--algebra", algebra, "--lhs", str(x), "--rhs", str(x)])
    assert code == 2 and not out
    assert "schema error" in err and "Traceback" not in err


# sha256 of run_suite(...).to_json(), one cheap configuration per suite;
# refactors of the algebra kernels must leave every report byte-identical
PINNED_REPORTS = [
    ("schur", {"n": 3, "d": 3},
     "2f60adb46733a7aa8f1e0c9af9c1563b5a3f1124e1e1642b43cdd7a514a9ea0b"),
    # n >= 4 reaches the distant R4 "EE"/"FF" commutations
    ("schur", {"n": 4, "d": 2},
     "dbf737cd7212502dcf59ae4220599b38a9a04034f4f3f89621db066702f05003"),
    ("schur", {"n": 5, "d": 3},
     "bd0a18cb4dc9f56e91059e62a836e4ecc1cd14120c26d5de82490936d2ff8517"),
    ("hecke", {"d": 3, "primes": (3,)},
     "b685239a35c030c82265dee464fda20490b18f764ef67785de6afeb69d107d87"),
    ("duality", {},
     "4475bb486583b21c457f4e0eff7bb215e57005aa9ead6d5affc11e67dc174437"),
    ("duality", {"n": 3, "d": 3},
     "6638f2008096845fa2f4551da5681127f013af3d5d63fd4f4a065615107776a1"),
    ("duality", {"n": 4, "d": 3},
     "02418c8ab03d620bcb8f9186a7dc0bac856056c7d565cdc69aa6f66e760000fb"),
    ("uvt", {"n": 2, "d": 3},
     "bc44be223dfb69076f7668754160a7b41efb60c1ebccdd2d89fa76b25134ce58"),
    ("star", {"n": 3},
     "c8823e1f2187da067fa8e2b1057d2f452d0fa084b70a015c79c2c6d81d1a7ed3"),
    ("stab", {"window": 3},
     "287e0c1e4701dc972781311813e38369e8d50fe290458ecb1157d5353884af24"),
    ("stab", {"n": 3, "window": 4},
     "555628a6d4fe1584d3bddbbec3d9a11a51bfb170c8c78ceabfb50a0e02a574f8"),
    ("jparity-tilde", {"n": 3, "d": 3, "m": 2},
     "feec49a26ac30566d4a958c7a7b5f01ff544ec92b822dc3ac8edc523ad7c9a73"),
    ("jparity-tilde", {"n": 4, "d": 3, "m": 1},
     "b1439085bce7e627abbd1bc340f8a161c936b34781ad8762f8596f0bc2ea0450"),
    ("jparity-tilde", {"n": 4, "d": 4, "m": 2},
     "d74c59e38e215a9f68f3cdad6749d7f9a1b32dff764748c71cad3036ed4b874e"),
    ("jparity-hat", {"n": 3},
     "3ce0465c60af012344d779de62fc8190a3c3116fdfda1d4edaa1ee825b7542c9"),
    ("jparity-hat", {"n": 5, "d": 4, "m": 2},
     "a9d88c901c090f612cc25ee853affd1c6a3fda5a124f4f5469b1d4aeac191c16"),
    ("jparity-hat", {"n": 8, "d": 4, "m": 1},
     "db4dc3e853bb9f6a1e74892cf7adacf71c3f19dcf782917f7f270cc2fa9368ec"),
    ("descend", {"n": 3},
     "0f34e120839e63a2bcaa41415498c45c69912ef278a0af21173c0996751dc5a4"),
    # d >= 4 reaches the Hecke generator rows past the generators themselves
    ("descend", {"n": 2, "d": 5},
     "ef489e7d33b2f9aaa1448c4f9ecc513f71d1c52f6a21671163d5dc23c9e7738b"),
    ("descend", {"n": 3, "d": 5},
     "5d527686d07d39d3e6915b06c32ae92b5c76a3cac889abf34ee8eaa54594f55e"),
    ("descend", {"n": 2, "d": 6},
     "a8fdbdf2ec3e8946c628412c3448714998483906119280c01e38609657fe0860"),
    ("oracle", {"n": 3, "primes": (3,)},
     "f585cf64e883518c3894137daa9812086a6e485c8d4aabfd51ac631d5b1dd7c6"),
]


def default_config(suite="duality"):
    return cli.verify_config(cli.build_parser().parse_args(["verify", suite]))


def test_default_report_json_bytes_pinned():
    for suite, over, digest in PINNED_REPORTS:
        cfg = dict(default_config(suite), **over)
        text = cli.run_suite(suite, cfg).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, suite
    text = cli.run_suite("duality", default_config()).to_json()
    code, out, _ = run_cli(["verify", "duality", "--spec", "2,3", "--format", "json"])
    assert code == 0 and out == text


# past the commutation guard, where the certificate's column bounds matter most
LARGE_DUALITY_REPORTS = [
    ({"n": 5, "d": 3}, "1cbb8f4a201cc61de49e4de76abf703c2b746fbb17056a96044dc20467a33180"),
    ({"n": 4, "d": 4}, "48455a2559393a8e10d609483afac90b3e99f7b3ccadb2c6a982ae5db7a71624"),
]


def test_large_duality_report_json_bytes_pinned(monkeypatch):
    monkeypatch.setenv("VTSCHUR_ALLOW_LARGE", "1")
    for over, digest in LARGE_DUALITY_REPORTS:
        text = cli.run_suite("duality", dict(default_config(), **over)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, over


@pytest.mark.parametrize("suite,over", [
    ("duality", {"n": 5, "d": 1}),
    ("oracle", {"n": 2, "d": 1, "primes": (11,)}),
    ("hecke", {"d": 2, "primes": (11,)}),
    ("stab", {"n": 1, "window": 1201}),  # 2,403 diagonals
])
def test_allow_large_lifts_the_guards(monkeypatch, suite, over):
    cfg = dict(default_config(suite), **over)
    monkeypatch.delenv("VTSCHUR_ALLOW_LARGE", raising=False)
    with pytest.raises(flags.GuardExceeded):
        cli.run_suite(suite, cfg)
    monkeypatch.setenv("VTSCHUR_ALLOW_LARGE", "1")
    assert cli.run_suite(suite, cfg).passed


def test_allow_large_lifts_the_subspace_table_guard(monkeypatch, capsys):
    # the subspace table's guard (d <= SUBSPACE_MAX_D) lowered, so that
    # lifting it starts no large run
    monkeypatch.setattr(flags, "SUBSPACE_MAX_D", 1)
    for memo in (flags._subspace_index, flags._products, flags._flag_code):
        memo.cache_clear()
    argv = ["verify", "oracle", "--n", "2", "--d", "2", "--primes", "3"]
    monkeypatch.delenv("VTSCHUR_ALLOW_LARGE", raising=False)
    assert cli.main(argv) == 2
    assert "subspace enumeration guard d <= 1" in capsys.readouterr().err
    monkeypatch.setenv("VTSCHUR_ALLOW_LARGE", "1")
    assert cli.main(argv) == 0
    assert "suite oracle: PASS" in capsys.readouterr().out


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
    {"A1": [[0, 1.9], [0, 0]], "A2": [[0, 0], [0, 1]]},
    {"A1": [[0, 1], [0, 0]], "A2": [[0, 0], [0, True]]},
    {"A1": [[0, "1"], [0, 0]], "A2": [[0, 0], [0, 1]]},
])
def test_stab_fit_malformed_pair_exit_2(tmp_path, doc):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    code, out, err = run_cli(["stab-fit", "--pair", str(pair)])
    assert code == 2 and not out
    assert "schema error" in err


@pytest.mark.parametrize("key", ["A1", "A2"])
def test_stab_fit_negative_off_diagonal_exit_2(tmp_path, key):
    doc = {"A1": [[0, 1], [0, 0]], "A2": [[0, 0], [0, 1]]}
    doc[key] = [[0, -1], [0, 0]] if key == "A1" else [[0, 0], [-1, 1]]
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    code, out, err = run_cli(["stab-fit", "--pair", str(pair)])
    assert code == 2 and not out
    assert "bad request: %s = " % key in err and "negative off-diagonal entry" in err


# the library call that starts each suite's work
SUITE_ENTRY_POINTS = [
    (schur, "verify_relations"), (hecke, "verify_hecke"), (tensor, "commute_check"),
    (uvt, "verify_all"), (stab, "limit_relation_suite"), (jparity, "verify_tilde_relations"),
    (jparity, "verify_hat_relations"), (galois, "sigma_involutive"), (schur, "oracle_compare"),
]


def _no_work(monkeypatch):
    """Make every suite's entry point fail the test if it is called."""
    def started(*args, **kwargs):
        raise AssertionError("the suite started work before its rules rejected the request")

    for module, name in SUITE_ENTRY_POINTS:
        monkeypatch.setattr(module, name, started)
    monkeypatch.delenv("VTSCHUR_ALLOW_LARGE", raising=False)


ALL = " ".join(cli.SUITES)
SIZED = "schur duality uvt star stab jparity-tilde jparity-hat descend oracle"  # hecke reads no n
BIG_PRIME = "1000000000000000003"

# the rejected `verify` argv of tests/cli_battery.py, with the suites that
# reject each (argv that argparse rejects are left out)
REJECTED = [
    ("--n 0", ALL), ("--n -1", ALL), ("--d -1", ALL),
    ("--d 0", "schur jparity-tilde jparity-hat"),
    ("--d 1", "jparity-hat"),
    ("--n 1", "jparity-tilde jparity-hat"),
    ("--n 1 --d 1", "jparity-tilde jparity-hat"),
    ("--n 4 --d 3", "stab"),
    ("--n 5", "duality stab oracle"),
    ("--n 9", SIZED), ("--n 5000", SIZED),
    ("--d 4", "hecke duality oracle"),
    ("--d 6", "hecke duality oracle"),
    ("--d 13", "schur hecke duality uvt star jparity-tilde jparity-hat descend oracle"),
    ("--m 0", "jparity-tilde jparity-hat"),
    ("--m -1", "jparity-tilde jparity-hat"),
    ("--m 2", "jparity-tilde jparity-hat"),
    ("--n 3 --m 2", "jparity-hat"),
    ("--n 4 --m 2", "stab"),
    ("--n 4 --d 3 --m 3", "stab jparity-hat"),
    ("--window 0", "stab"),
    ("--window 2", "stab"),
    ("--window -5", "stab"),
    ("--n 5 --window 4", "duality stab oracle"),
    ("--n 1 --window 1201", "stab jparity-tilde jparity-hat"),
    ("--spec 1,1", "duality"),
    ("--spec 0,3", "duality"),
    ("--spec 4000064000087,3", "duality"),
    *(("--primes " + p, "hecke oracle")
      for p in ("4", "2", "1", "9,3", "11", "3,11", BIG_PRIME, "3," + BIG_PRIME)),
    ("--n 0 --window 0", ALL),
    ("--n 5 --window 2", "duality stab oracle"),
    ("--n 9 --d 0", SIZED),
    ("--n 5000 --m 0", SIZED),
    ("--d 0 --primes 4", "schur hecke jparity-tilde jparity-hat oracle"),
    ("--d 9 --primes 4", "hecke duality jparity-hat descend oracle"),
    ("--n 4 --spec 1,1", "duality stab"),
]


@pytest.mark.parametrize("argv,suites", REJECTED, ids=[argv or "defaults" for argv, _ in REJECTED])
def test_rules_are_judged_before_any_work(monkeypatch, capsys, argv, suites):
    _no_work(monkeypatch)
    for suite in suites.split():
        assert cli.main(["verify", suite, *argv.split()]) == 2, suite
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1, (suite, err)
        assert err.startswith(("bad request: ", "guard exceeded: ")), (suite, err)


def _readme_guard_table():
    """(suite, limit, first argv past it) of each row of README's guard table."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Guards and scale\n")[1].split("\n## ")[0]
    return re.findall(r"^\| `([\w-]+)` \| `([^`]+)` \| `([^`]+)` \|", section, flags=re.M)


def test_readme_guard_table_matches_the_guards(monkeypatch, capsys):
    rows = _readme_guard_table()
    assert sorted({suite for suite, _, _ in rows}) == sorted(cli.SUITES)
    _no_work(monkeypatch)
    for suite, limit, argv in rows:
        assert cli.main(["verify", suite, *argv.split()]) == 2, suite
        err = capsys.readouterr().err
        assert err.startswith("guard exceeded: " + limit), (suite, err)
        assert "VTSCHUR_ALLOW_LARGE=1" in err, suite


def test_descent_guard_admits_d_8(monkeypatch, capsys):
    # the last d within the descent guard: d!(d - 1) = 282,240 generator rows
    monkeypatch.delenv("VTSCHUR_ALLOW_LARGE", raising=False)
    assert cli.main(["verify", "descend", "--d", "8"]) == 0
    assert "suite descend: PASS" in capsys.readouterr().out
