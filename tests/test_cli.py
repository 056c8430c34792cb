"""End-to-end CLI tests, run through subprocesses (in-process where a handler is patched)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clockwork import cli

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
LOOP = str(DATA / "loop.imp")
SKIP = str(DATA / "skip.imp")
INCR = str(DATA / "incr.imp")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "clockwork", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_run_worked_example_final():
    p = run_cli("run", LOOP, "--sem", "cval", "--fuel", "3")
    assert p.returncode == 0
    assert json.loads(p.stdout) == {
        "semantics": "cval",
        "fuel_in": 3,
        "outcome": "final",
        "store": {"x": 3},
        "leftover_fuel": 0,
        "fuel_consumed": 3,
    }


def test_run_worked_example_timeout():
    p = run_cli("run", LOOP, "--sem", "cval", "--fuel", "2")
    assert p.returncode == 2
    assert json.loads(p.stdout) == {"semantics": "cval", "fuel_in": 2, "outcome": "timeout"}


def test_run_skip_under_ev_fuel_zero():
    p = run_cli("run", SKIP, "--sem", "ev", "--fuel", "0")
    assert p.returncode == 2
    assert json.loads(p.stdout)["outcome"] == "timeout"


def test_run_env_semantics_report_fields():
    p = run_cli("run", LOOP, "--sem", "ev-min", "--fuel", "10")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["outcome"] == "final"
    assert doc["store"] == {"x": 3}
    assert "leftover_fuel" not in doc  # env-like clock is not returned
    assert doc["fuel_consumed"] == 3  # minimal sufficient fuel


def test_run_fuel_search_found_and_not_found():
    p = run_cli("run", LOOP, "--sem", "cval", "--fuel", "search:64", "--oracle")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["fuel_in"] == "search:64"
    assert doc["outcome"] == "final"
    assert doc["store"] == {"x": 3}
    assert doc["leftover_fuel"] == 1  # found at fuel 4
    assert doc["fuel_consumed"] == 3
    assert doc["oracle_steps"] == 16

    diverging = DATA / "diverge.imp"
    diverging.write_text("WHILE true DO SKIP OD\n")
    try:
        p = run_cli("run", str(diverging), "--sem", "cval", "--fuel", "search:32", "--oracle", "--cap", "100")
        assert p.returncode == 2
        doc = json.loads(p.stdout)
        assert doc["outcome"] == "not-found"
        assert "store" not in doc and "fuel_consumed" not in doc
        assert doc["oracle_steps"] is None
    finally:
        diverging.unlink()


def test_run_init_bindings_and_default_zero():
    p = run_cli("run", INCR, "--sem", "cval", "--fuel", "5", "--init", "x=3,y=1")
    assert json.loads(p.stdout)["store"] == {"x": 3, "y": 4}
    p = run_cli("run", INCR, "--sem", "cval", "--fuel", "5")
    assert json.loads(p.stdout)["store"] == {"y": 1}  # unbound x reads as 0


def test_run_parse_error_exit_1():
    bad = DATA / "bad.imp"
    bad.write_text("x :=")
    try:
        p = run_cli("run", str(bad), "--sem", "cval", "--fuel", "1")
        assert p.returncode == 1
        assert p.stdout == ""
        assert "1:5" in p.stderr
        assert "arithmetic expression" in p.stderr
    finally:
        bad.unlink()


def test_run_usage_errors_exit_1():
    p = run_cli("run", LOOP, "--sem", "cval", "--fuel", "nope")
    assert p.returncode == 1
    p = run_cli("run", LOOP, "--sem", "bogus", "--fuel", "1")
    assert p.returncode == 1
    p = run_cli("run", LOOP, "--sem", "cval", "--fuel", "1", "--init", "x=oops")
    assert p.returncode == 1


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_resource_exhaustion_is_one_stderr_line_exit_1(monkeypatch, capsys, exc):
    def handler(args):
        raise exc("raised by the handler")

    monkeypatch.setattr(cli, "cmd_parse", handler)
    assert cli.main(["parse", SKIP]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert exc.__name__ in err and "Traceback" not in err


def test_trace_skip_program():
    p = run_cli("trace", SKIP)
    assert p.returncode == 0
    assert p.stdout.splitlines() == ["⟨SKIP, {}⟩", "steps: 0"]


def test_trace_single_assignment():
    single = DATA / "one.imp"
    single.write_text("x := 1\n")
    try:
        p = run_cli("trace", str(single))
        lines = p.stdout.splitlines()
        assert lines == [
            "⟨x := 1, {}⟩",
            "⟨SKIP, {x: 1}⟩",
            "steps: 1",
        ]
        assert p.returncode == 0
    finally:
        single.unlink()


def test_trace_step_limit():
    diverging = DATA / "dv.imp"
    diverging.write_text("WHILE true DO SKIP OD\n")
    try:
        p = run_cli("trace", str(diverging), "--cap", "5")
        assert p.returncode == 2
        assert p.stdout.splitlines()[-1] == "step-limit: 5"
        assert len(p.stdout.splitlines()) == 7  # 6 configs + summary
    finally:
        diverging.unlink()


def test_parse_command():
    p = run_cli("parse", LOOP)
    assert p.returncode == 0
    assert json.loads(p.stdout) == {"pretty": "x := 0 ; WHILE x < 3 DO x := x + 1 OD"}


def test_check_single_property():
    p = run_cli("check", "P2", "--seed", "1", "--cases", "10")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["property"] == "P2"
    assert doc["cases"] == 10
    assert doc["failures"] == []


def test_check_all_prints_eleven_reports():
    p = run_cli("check", "--all", "--seed", "42", "--cases", "2")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert len(lines) == 11
    ids = [json.loads(line)["property"] for line in lines]
    assert ids == ["P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "RT"]


def test_check_unknown_property_usage_error():
    p = run_cli("check", "P99")
    assert p.returncode == 1
    assert "unknown property id" in p.stderr


def test_check_requires_ids_or_all():
    p = run_cli("check")
    assert p.returncode == 1


def test_check_seed_env_var():
    a = run_cli("check", "P4", "--cases", "5", env_extra={"CLOCKWORK_SEED": "777"})
    b = run_cli("check", "P4", "--cases", "5", "--seed", "777")
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db


@pytest.mark.parametrize(
    "golden,args",
    [
        ("run_loop_cval_fuel3.json", ("run", LOOP, "--sem", "cval", "--fuel", "3")),
        ("run_loop_cval_fuel2.json", ("run", LOOP, "--sem", "cval", "--fuel", "2")),
        ("run_skip_ev_fuel0.json", ("run", SKIP, "--sem", "ev", "--fuel", "0")),
        ("trace_loop.txt", ("trace", LOOP, "--cap", "1000")),
        ("trace_skip.txt", ("trace", SKIP)),
    ],
)
def test_golden_files_byte_for_byte(golden, args):
    p = subprocess.run(
        [sys.executable, "-m", "clockwork", *args], capture_output=True
    )
    assert p.stdout == (GOLDEN / golden).read_bytes()
