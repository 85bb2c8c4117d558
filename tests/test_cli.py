"""CLI contracts: the flags of each subcommand, exit codes, machine reports, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fqdist
from fqdist import cli
from fqdist.errors import ClaimViolation


def run(argv):
    return cli.main(argv)


def test_verify_happy_path(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--p", "3", "--r", "1", "--oracle", "structured", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "missing element #28" in text
    rep = json.loads(out.read_text())
    assert rep["delta_ne_Fq"] is True
    assert rep["size_delta"] == 441
    assert rep["oracle_mode"] == "structured-only"


def test_verify_with_both_oracles(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--p", "3", "--r", "1", "--oracle", "both", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["delta_ne_Fq"] is True
    assert rep["oracle_mode"] == "bruteforce+structured"


def test_verify_rejects_composite_p(capsys):
    assert run(["verify", "--p", "4", "--r", "1"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_verify_rejects_char2(capsys):
    assert run(["verify", "--p", "2", "--r", "1"]) == 2


def test_usage_errors_exit_2():
    assert run(["verify", "--p", "3"]) == 2  # missing --r
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    assert run(["verify", "--p", "3", "--r", "1", "--format", "csv"]) == 2
    assert run(["verify", "--p", "3", "--r", "1", "--basis", "1,2,3"]) == 2
    assert run(["verify", "--p", "3", "--r", "1", "--threads", "0"]) == 2


def test_claim_violation_maps_to_exit_1(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ClaimViolation("synthetic failure")

    monkeypatch.setattr(cli.verify, "verify_counterexample", boom)
    assert run(["verify", "--p", "3", "--r", "1"]) == 1
    assert "CLAIM VIOLATED" in capsys.readouterr().err


def test_internal_fault_maps_to_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli.verify, "verify_counterexample", boom)
    assert run(["verify", "--p", "3", "--r", "1"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: synthetic fault\n"


def test_pair_budget_flag(capsys):
    assert run(["verify", "--p", "3", "--r", "1", "--pair-budget", "100"]) == 2
    assert "exceeds the budget" in capsys.readouterr().err


def test_bad_env_budget(monkeypatch):
    # the pair budget has one source, --pair-budget; the environment
    # variable that once set it is not read
    monkeypatch.setenv("FALCONER_PAIR_BUDGET", "lots")
    assert run(["verify", "--p", "3", "--r", "1"]) == 0


def test_each_subcommand_has_only_the_flags_it_reads():
    want = {
        "construct": ["--p", "--r", "--basis", "--out"],
        "verify": ["--p", "--r", "--basis", "--oracle", "--dump-bits", "--pair-budget",
                   "--threads", "--out", "-v"],
        "scan": ["--p", "--r", "--basis", "--pair-budget", "--format", "--out"],
        "census": ["--q", "--pruning", "--out"],
        "selftest": ["--seed", "--triples"],
    }
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    got = {
        name: [a.option_strings[0] for a in sp._actions if a.dest != "help"]
        for name, sp in sub.choices.items()
    }
    assert got == want


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # repeated main calls share one parser, and answer as calls that each
    # build their own: verify, a bad flag (exit 2), then scan
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    argvs = [["verify", "--p", "3", "--r", "1", "--oracle", "structured"],
             ["verify", "--p", "3", "--r", "1", "--threads", "x"],
             ["scan", "--p", "3", "--r", "1", "--format", "csv"]]

    def outputs(fresh):
        got = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            code = run(argv)
            captured = capsys.readouterr()
            # the verify summary ends with its wall time
            got.append((code, re.sub(r"verified in [0-9.]+s", "", captured.out), captured.err))
        return got

    fresh = outputs(fresh=True)
    calls.clear()
    cli._parser.cache_clear()
    shared = outputs(fresh=False)
    assert len(calls) == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0]
    assert "invalid int value" in shared[1][2]


@pytest.mark.parametrize("argv", [
    ["construct", "--p", "3", "--r", "1", "--threads", "2"],
    ["scan", "--p", "3", "--r", "1", "--threads", "2"],
    ["census", "--q", "3", "--pair-budget", "5"],
    ["selftest", "--triples", "1", "--out", "x.json"],
    ["verify", "--p", "3", "--r", "1", "--enum-budget", "5"],
])
def test_unread_flag_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scan_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run(["scan", "--p", "3", "--r", "1", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("r,q,size_E,size_delta")
    assert lines[1] == "1,729,6561,441,441,49,81,0.604938,true"


def test_scan_csv_to_stdout(capsys):
    assert run(["scan", "--p", "3", "--r", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("r,q,")
    assert len(lines) == 2


def test_scan_row_failure_exit_code(tmp_path):
    out = tmp_path / "scan.json"
    code = run(["scan", "--p", "7", "--r", "1,2", "--out", str(out)])  # 7^12 too large
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["size_delta"] == 61201
    assert "error" in doc["rows"][1]


def test_scan_isolates_an_invalid_r(capsys):
    assert run(["scan", "--p", "3", "--r", "0,1"]) == 2
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0] == {"r": 0, "error": "r must be at least 1", "error_kind": "config"}
    assert rows[1]["size_delta"] == 441 and rows[1]["delta_ne_Fq"] is True


def test_oversized_field_exits_2_with_one_line(capsys):
    assert run(["verify", "--p", "3", "--r", "2000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: field order 3^12000 exceeds the size guard 2147483648\n"


def test_scan_isolates_an_oversized_r(capsys):
    assert run(["scan", "--p", "3", "--r", "1,2000"]) == 2
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["size_delta"] == 441 and rows[0]["delta_ne_Fq"] is True
    assert rows[1]["error_kind"] == "config" and "3^12000" in rows[1]["error"]


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert run(["verify", "--p", "3", "--r", "1", "--oracle", "structured",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_failed_write_keeps_existing_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cons.json"
    out.write_text("earlier report\n")

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", fail)
    assert run(["construct", "--p", "3", "--r", "1", "--out", str(out)]) == 2
    assert out.read_text() == "earlier report\n"
    assert [f.name for f in tmp_path.iterdir()] == ["cons.json"]
    monkeypatch.undo()
    # a device is written in place, never replaced
    assert run(["construct", "--p", "3", "--r", "1", "--out", os.devnull]) == 0
    assert not os.path.isfile(os.devnull)


def test_construct_record(tmp_path, capsys):
    out = tmp_path / "cons.json"
    assert run(["construct", "--p", "3", "--r", "1", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec == {
        "p": 3,
        "r": 1,
        "field": {"p": 3, "n": 6, "modulus": [2, 1, 0, 0, 0, 0, 1], "generator_index": 3},
        "subfield_m": 2,
        "i_index": 129,
        "basis": [1, 3],
    }


def test_census_cli(tmp_path, capsys):
    out = tmp_path / "census.json"
    assert run(["census", "--q", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["max_incomplete_size"] == 3
    assert run(["census", "--q", "7"]) == 2


def test_two_runs_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--p", "3", "--r", "1", "--oracle", "structured"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("elapsed_seconds")
    db.pop("elapsed_seconds")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_selftest(capsys):
    assert run(["selftest", "--seed", "1", "--triples", "300"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out
    assert "PASS  union of random name masks = direct naming, GF(3^6) and GF(7^3)" in out
    assert "PASS  grid brute force = point-list brute force on E at (3,1)" in out
    assert ("PASS  batched multiply = scalar multiply, random pairs, float32 GF(3^6) and "
            "GF(7^3), float64 GF(46337^2)") in out
    assert "PASS  F-coordinate products = ExtField.mul, GF(3^6) and GF(7^3)" in out


def test_help_exits_zero():
    assert run(["--help"]) == 0


def test_python_m_fqdist_from_a_checkout():
    # the package run as a module from the source tree, not installed
    src = str(Path(fqdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "fqdist", "verify", "--p", "3", "--r", "1", "--oracle", "both",
         "--threads", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("oracles: bruteforce+structured") for line in done.stdout.splitlines())
