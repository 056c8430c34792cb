"""End-to-end CLI tests, run through subprocesses (in-process where a handler
is patched or a test makes a thousand calls)."""

import errno
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from reference_smallstep import iter_trace

from clockwork import cli, testkit
from clockwork.imp import If, Seq, Store, While, pretty
from clockwork.parser import parse_com
from clockwork.testkit import PROPERTY_IDS, GenConfig, gen_com, gen_store, replay_case

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"
# the subprocesses run this checkout's package, installed or not
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
LOOP = str(DATA / "loop.imp")
SKIP = str(DATA / "skip.imp")
INCR = str(DATA / "incr.imp")


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "clockwork", *args],
        capture_output=True,
        text=True,
        env=dict(CLI_ENV, **(env_extra or {})),
    )


def test_cli_import_leaves_dataclasses_unloaded():
    # `@dataclass` and the `inspect` import it pulls in cost about a third
    # of a fresh CLI start; the value classes are written out instead.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import clockwork.cli; print('dataclasses' in sys.modules)"
    p = subprocess.run([sys.executable, "-S", "-c", code, CLI_ENV["PYTHONPATH"]], capture_output=True, text=True)
    assert (p.returncode, p.stdout, p.stderr) == (0, "False\n", "")


def test_a_one_process_check_loads_neither_pickle_nor_signal():
    # Only a check with workers sends results and stops processes.
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); import clockwork.cli; "
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "code = clockwork.cli.main(['check', 'P1', '--cases', '3']); "
        "print(code, 'pickle' in sys.modules, 'signal' in sys.modules)"
    )
    p = subprocess.run([sys.executable, "-S", "-c", code, CLI_ENV["PYTHONPATH"]], capture_output=True, text=True)
    assert (p.returncode, p.stdout.splitlines()[-1], p.stderr) == (0, "0 False False", "")


def test_a_check_with_workers_loads_no_pickle():
    # Workers send counts and case indices as text; signal shows they ran.
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); import clockwork.cli; "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        "code = clockwork.cli.main(['check', 'P1', 'P2', '--cases', '40']); "
        "print(code, 'pickle' in sys.modules, 'signal' in sys.modules)"
    )
    p = subprocess.run([sys.executable, "-S", "-c", code, CLI_ENV["PYTHONPATH"]], capture_output=True, text=True)
    assert (p.returncode, p.stdout.splitlines()[-1], p.stderr) == (0, "0 False True", "")


def test_package_import_loads_no_submodule():
    # The package root re-exports nothing: callers import the defining module.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import clockwork; "
        "print(sorted(m for m in sys.modules if m.startswith('clockwork.')))"
    )
    p = subprocess.run([sys.executable, "-S", "-c", code, CLI_ENV["PYTHONPATH"]], capture_output=True, text=True)
    assert (p.returncode, p.stdout, p.stderr) == (0, "[]\n", "")


def test_check_help_lists_every_property_id():
    p = run_cli("check", "-h")
    assert p.returncode == 0
    assert set(PROPERTY_IDS) <= set(re.findall(r"\w+", p.stdout))


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


def test_run_fuel_search_found_and_not_found(tmp_path):
    p = run_cli("run", LOOP, "--sem", "cval", "--fuel", "search:64", "--oracle")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["fuel_in"] == "search:64"
    assert doc["outcome"] == "final"
    assert doc["store"] == {"x": 3}
    assert doc["leftover_fuel"] == 1  # found at fuel 4
    assert doc["fuel_consumed"] == 3
    assert doc["oracle_steps"] == 16

    diverging = tmp_path / "diverge.imp"
    diverging.write_text("WHILE true DO SKIP OD\n")
    p = run_cli("run", str(diverging), "--sem", "cval", "--fuel", "search:32", "--oracle", "--cap", "100")
    assert p.returncode == 2
    doc = json.loads(p.stdout)
    assert doc["outcome"] == "not-found"
    assert "store" not in doc and "fuel_consumed" not in doc
    assert doc["oracle_steps"] is None


def _counting(monkeypatch, sem_key):
    """Counts the calls `run` makes to the evaluator it names."""
    calls = []
    fn = cli.SEMANTICS[sem_key]

    def counted(*args):
        calls.append(args[2])
        return fn(*args)

    monkeypatch.setitem(cli.SEMANTICS, sem_key, counted)
    return calls


@pytest.mark.parametrize("sem", ["ev", "ev-min"])
@pytest.mark.parametrize("fuel", ["10", str(10**12)])
def test_run_depth_clocks_call_the_evaluator_once(monkeypatch, capsys, sem, fuel):
    calls = _counting(monkeypatch, sem.replace("-", "_"))
    assert cli.main(["run", LOOP, "--sem", sem, "--fuel", fuel]) == 0
    assert calls == [int(fuel)]
    doc = json.loads(capsys.readouterr().out)
    assert doc["store"] == {"x": 3}
    assert doc["fuel_consumed"] == {"ev": 8, "ev-min": 3}[sem]


def test_run_search_reports_the_least_fuel_not_the_found_one(capsys):
    # the search finds ev_min's result at fuel 4; the least sufficient is 3
    assert cli.main(["run", LOOP, "--sem", "ev-min", "--fuel", "search:64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["store"] == {"x": 3}
    assert doc["fuel_consumed"] == 3


def test_run_rejects_bad_cap_before_evaluating(monkeypatch, capsys):
    calls = _counting(monkeypatch, "cval")
    for oracle in (["--oracle"], []):
        assert cli.main(["run", LOOP, "--sem", "cval", "--fuel", "3", *oracle, "--cap", "0"]) == 1
        assert calls == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "clockwork: --cap must be positive\n"


def test_run_table_of_outcomes_under_every_semantics(capsys):
    # Each row of the golden is "program sem fuel exit json": final, timeout
    # and not-found, from an exact fuel and from a search, for both clocks.
    rows = []
    for program in ("loop", "diverge"):
        path = str(README.parent / "programs" / f"{program}.imp")
        for sem in cli._SEM_CHOICES:
            for fuel in ("0", "3", "200", "search:1", "search:64"):
                code = cli.main(["run", path, "--sem", sem, "--fuel", fuel, "--oracle", "--cap", "100"])
                out, err = capsys.readouterr()
                assert err == ""
                rows.append(f"{program} {sem} {fuel} {code} {out}")
    assert "".join(rows).splitlines() == (GOLDEN / "run_table.txt").read_text(encoding="utf-8").splitlines()


def _flat(n: int) -> str:
    return " ; ".join(f"x{i % 7} := {i + 1}" for i in range(n))


# Least sufficient fuel of an n-statement straight-line program.
FLAT_FUEL = {
    "ev": lambda n: n,
    "ev-min": lambda n: 0,
    "cval": lambda n: 0,
    "cval-guard": lambda n: 0,
    "cval-tick": lambda n: 2 * n - 1,
}


@pytest.mark.parametrize("sem", sorted(FLAT_FUEL))
def test_run_straight_line_fuel_formulas_at_small_n(tmp_path, capsys, sem):
    fn = cli.SEMANTICS[sem.replace("-", "_")]
    path = tmp_path / "flat.imp"
    for n in range(1, 13):
        path.write_text(_flat(n), encoding="utf-8")
        assert cli.main(["run", str(path), "--sem", sem, "--fuel", "100"]) == 0
        fuel = json.loads(capsys.readouterr().out)["fuel_consumed"]
        assert fuel == FLAT_FUEL[sem](n)
        com = parse_com(_flat(n))
        assert fn(com, Store(), fuel) is not None
        assert fuel == 0 or fn(com, Store(), fuel - 1) is None


def test_run_long_straight_line_program_under_all_semantics(tmp_path, capsys):
    n = 100_000
    path = tmp_path / "flat.imp"
    path.write_text(_flat(n) + "\n", encoding="utf-8")
    last = {f"x{i % 7}": i + 1 for i in range(n - 7, n)}
    for sem, least in FLAT_FUEL.items():
        assert cli.main(["run", str(path), "--sem", sem, "--fuel", "300000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["store"] == dict(sorted(last.items()))
        assert doc["fuel_consumed"] == least(n), sem


def test_run_init_bindings_and_default_zero():
    p = run_cli("run", INCR, "--sem", "cval", "--fuel", "5", "--init", "x=3,y=1")
    assert json.loads(p.stdout)["store"] == {"x": 3, "y": 4}
    p = run_cli("run", INCR, "--sem", "cval", "--fuel", "5")
    assert json.loads(p.stdout)["store"] == {"y": 1}  # unbound x reads as 0


def test_run_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.imp"
    bad.write_text("x :=")
    p = run_cli("run", str(bad), "--sem", "cval", "--fuel", "1")
    assert p.returncode == 1
    assert p.stdout == ""
    assert "1:5" in p.stderr
    assert "arithmetic expression" in p.stderr


# Python refuses to convert integers longer than this to or from text.
DIGITS = sys.get_int_max_str_digits()
TOO_LONG = "clockwork: a value is too long to print: Exceeds the limit"


def test_parse_overlong_literal_is_a_one_line_parse_error(tmp_path, capsys):
    path = tmp_path / "long.imp"
    path.write_text("y := 1 ;\n  x := " + "1" * (DIGITS + 700) + "\n", encoding="utf-8")
    assert cli.main(["parse", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{path}:2:8: integer literal too long ({DIGITS + 700} digits)\n"


def test_run_overlong_result_is_one_stderr_line_exit_1(tmp_path, capsys):
    path = tmp_path / "double.imp"
    path.write_text("x := 1 ; WHILE i < 15000 DO x := x + x ; i := i + 1 OD\n")
    assert cli.main(["run", str(path), "--sem", "cval", "--fuel", "20000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(TOO_LONG) and len(err.splitlines()) == 1


def test_trace_overlong_value_is_one_stderr_line_exit_1(tmp_path, capsys):
    # the literal prints; one doubling makes a value one digit too long
    path = tmp_path / "double.imp"
    path.write_text("x := " + "9" * DIGITS + " ; x := x + x\n")
    assert cli.main(["trace", str(path)]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3  # the configurations before the doubling
    assert err.startswith(TOO_LONG) and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "src,where,char", [("é := 1", "1:1", "é"), ("xé := 1", "1:2", "é"), ("x := ²", "1:6", "²"), ("x := ٣", "1:6", "٣")]
)
def test_non_ascii_input_is_a_one_line_parse_error(tmp_path, src, where, char):
    path = tmp_path / "bad.imp"
    path.write_text(src, encoding="utf-8")
    p = run_cli("parse", str(path), env_extra={"PYTHONIOENCODING": "utf-8"})
    assert p.returncode == 1
    assert p.stdout == ""
    assert p.stderr == f"{path}:{where}: unexpected character {char!r}\n"


@pytest.mark.parametrize("argv", [["parse"], ["run", "--sem", "cval", "--fuel", "3"], ["trace"]])
def test_file_that_is_not_utf8_is_one_stderr_line(tmp_path, capsys, argv):
    path = tmp_path / "bad.imp"
    path.write_bytes(b"x := 1 \xff\n")
    assert cli.main([argv[0], str(path), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"clockwork: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"
    )


def test_run_usage_errors_exit_1():
    p = run_cli("run", LOOP, "--sem", "cval", "--fuel", "nope")
    assert p.returncode == 1
    p = run_cli("run", LOOP, "--sem", "bogus", "--fuel", "1")
    assert p.returncode == 1
    p = run_cli("run", LOOP, "--sem", "cval", "--fuel", "1", "--init", "x=oops")
    assert p.returncode == 1


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse rejects a value before main's handler runs
        return e.code


def test_commands_in_one_process_print_what_each_prints_alone(capsys):
    # main builds its argument parser once per process and reuses it
    usage_error = ["check", "P1", "--cases", "x"]
    commands = [
        usage_error,
        ["check", "P2", "P3", "--seed", "1", "--cases", "3"],
        ["run", LOOP, "--sem", "cval", "--fuel", "3"],
        ["parse", LOOP],
        ["trace", LOOP, "--cap", "5"],
        usage_error,
    ]
    elapsed = re.compile(rb'"elapsed_ms":[0-9]+')
    for argv in commands:
        code = _exit_code(argv)
        out, err = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "clockwork", *argv], capture_output=True, env=CLI_ENV)
        got = (code, elapsed.sub(b"", out.encode()), err.encode())
        assert got == (alone.returncode, elapsed.sub(b"", alone.stdout), alone.stderr), argv


_BAD_INT = "invalid literal for int() with base 10"


@pytest.mark.parametrize(
    "argv,env_seed,code,err_tail",
    [
        (["run", LOOP, "--sem", "cval", "--fuel", "3"], None, 0, None),
        (["run", LOOP, "--sem", "cval", "--fuel", "-3"], None, 1, "clockwork: bad --fuel '-3': expected N or search:MAX"),
        (["run", LOOP, "--sem", "cval", "--fuel", "٣"], None, 1, "clockwork: bad --fuel '٣': expected N or search:MAX"),
        (["run", LOOP, "--sem", "cval", "--fuel", "1_0"], None, 1, "clockwork: bad --fuel '1_0': expected N or search:MAX"),
        (["run", LOOP, "--sem", "cval", "--fuel", "+3"], None, 1, "clockwork: bad --fuel '+3': expected N or search:MAX"),
        (["run", LOOP, "--sem", "cval", "--fuel", " 3"], None, 1, "clockwork: bad --fuel ' 3': expected N or search:MAX"),
        (["run", LOOP, "--sem", "cval", "--fuel", "search:1_0"], None, 1, "clockwork: bad --fuel search spec 'search:1_0'"),
        (["run", LOOP, "--sem", "cval", "--fuel", "search:٣"], None, 1, "clockwork: bad --fuel search spec 'search:٣'"),
        (["run", LOOP, "--sem", "cval", "--fuel", "3", "--init", " x = -2 , y=1"], None, 0, None),
        (["run", LOOP, "--sem", "cval", "--fuel", "3", "--init", "x=٣"], None, 1, f"clockwork: bad --init binding 'x=٣': {_BAD_INT}: '٣'"),
        (["run", LOOP, "--sem", "cval", "--fuel", "3", "--init", "x=1_0"], None, 1, f"clockwork: bad --init binding 'x=1_0': {_BAD_INT}: '1_0'"),
        (["run", LOOP, "--sem", "cval", "--fuel", "3", "--init", "x=oops"], None, 1, f"clockwork: bad --init binding 'x=oops': {_BAD_INT}: 'oops'"),
        (["run", LOOP, "--sem", "cval", "--fuel", "3", "--oracle", "--cap", "٣"], None, 1, "clockwork run: error: argument --cap: invalid int value: '٣'"),
        (["run", LOOP, "--sem", "cval", "--fuel", "3", "--oracle", "--cap", "x"], None, 1, "clockwork run: error: argument --cap: invalid int value: 'x'"),
        (["trace", LOOP, "--cap", "1_0"], None, 1, "clockwork trace: error: argument --cap: invalid int value: '1_0'"),
        (["check", "P1", "--cases", "٣", "--seed", "42"], None, 1, "clockwork check: error: argument --cases: invalid int value: '٣'"),
        (["check", "P1", "--cases", "3", "--seed", "٤٢"], None, 1, "clockwork check: error: argument --seed: invalid int value: '٤٢'"),
        (["check", "P1", "--cases", "3", "--seed", "-42"], None, 0, None),
        (["check", "P1", "--cases", "3"], "٤٢", 1, "clockwork: CLOCKWORK_SEED must be an integer"),
        (["check", "P1", "--cases", "3"], "4_2", 1, "clockwork: CLOCKWORK_SEED must be an integer"),
        (["check", "P1", "--cases", "3"], "42", 0, None),
        (["run", LOOP, "--sem", "cval", "--fuel", "5", "--init", "WHILE=2"], None, 1, "clockwork: bad --init: variable name is a keyword: 'WHILE'"),
        (["run", LOOP, "--sem", "cval", "--fuel", "5", "--init", "x=1,true=1"], None, 1, "clockwork: bad --init: variable name is a keyword: 'true'"),
        (["run", LOOP, "--sem", "cval", "--fuel", "3", "--init", "x=1,x=2"], None, 1, "clockwork: bad --init binding 'x=2': 'x' is already bound"),
        (["run", LOOP, "--sem", "cval", "--fuel", "3", "--init", "x=1, x =2"], None, 1, "clockwork: bad --init binding ' x =2': 'x' is already bound"),
    ],
)
def test_integer_options_are_ascii_decimal(monkeypatch, capsys, argv, env_seed, code, err_tail):
    if env_seed is None:
        monkeypatch.delenv("CLOCKWORK_SEED", raising=False)
    else:
        monkeypatch.setenv("CLOCKWORK_SEED", env_seed)
    assert _exit_code(argv) == code
    out, err = capsys.readouterr()
    if err_tail is None:
        assert err == "" and out
    else:
        assert out == ""
        assert err.splitlines()[-1] == err_tail


def test_sem_choices_are_the_semantics_names_in_order(capsys):
    assert _exit_code(["run", LOOP, "--sem", "bogus", "--fuel", "1"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "clockwork run: error: argument --sem: invalid choice: 'bogus' "
        "(choose from 'ev', 'ev-min', 'cval', 'cval-guard', 'cval-tick')"
    )


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


@pytest.mark.parametrize(
    "text",
    [
        "IF true THEN " * 3_000 + "SKIP" + " ELSE SKIP FI" * 3_000,
        "WHILE false DO " * 3_000 + "SKIP" + " OD" * 3_000,
        "(" * 3_000 + "SKIP" + ") ; SKIP" * 3_000,
    ],
    ids=["if", "while", "seq-left"],
)
def test_parse_and_trace_print_deeply_nested_commands(tmp_path, capsys, text):
    path = tmp_path / "deep.imp"
    path.write_text(text + "\n", encoding="utf-8")
    assert cli.main(["parse", str(path)]) == 0
    printed = json.loads(capsys.readouterr().out)["pretty"]
    assert parse_com(printed) == parse_com(text)
    cli.main(["trace", str(path), "--cap", "3"])
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[0] == f"⟨{printed}, {{}}⟩"


def test_trace_skip_program():
    p = run_cli("trace", SKIP)
    assert p.returncode == 0
    assert p.stdout.splitlines() == ["⟨SKIP, {}⟩", "steps: 0"]


def test_trace_single_assignment(tmp_path):
    single = tmp_path / "one.imp"
    single.write_text("x := 1\n")
    p = run_cli("trace", str(single))
    lines = p.stdout.splitlines()
    assert lines == [
        "⟨x := 1, {}⟩",
        "⟨SKIP, {x: 1}⟩",
        "steps: 1",
    ]
    assert p.returncode == 0


def test_trace_step_limit(tmp_path):
    diverging = tmp_path / "dv.imp"
    diverging.write_text("WHILE true DO SKIP OD\n")
    p = run_cli("trace", str(diverging), "--cap", "5")
    assert p.returncode == 2
    assert p.stdout.splitlines()[-1] == "step-limit: 5"
    assert len(p.stdout.splitlines()) == 7  # 6 configs + summary


def _seq_shapes(c) -> set:
    """"left" if some Seq in `c` has a Seq as its first operand, "right" if as its second."""
    cls = type(c)
    if cls is Seq:
        kids = (c.first, c.second)
        shapes = {side for side, kid in zip(("left", "right"), kids) if type(kid) is Seq}
    elif cls is If:
        kids, shapes = (c.then_branch, c.else_branch), set()
    elif cls is While:
        kids, shapes = (c.body,), set()
    else:
        return set()
    return shapes.union(*map(_seq_shapes, kids))


def test_trace_lines_equal_config_render_on_generated_programs(tmp_path, capsys):
    # `trace` refocuses and reuses the text of unchanged context entries
    # from line to line; the reference steps the literal relation, and
    # Config.render() pretty-prints every configuration from scratch.
    path = tmp_path / "p.imp"
    cap = 300
    shapes = {"left": 0, "right": 0}
    for seed in range(1000):
        gen = GenConfig(seed=seed)
        com, store = gen_com(gen, 30), gen_store(gen)
        for shape in _seq_shapes(com):
            shapes[shape] += 1
        path.write_text(pretty(com), encoding="utf-8")
        init = ",".join(f"{k}={v}" for k, v in store.to_dict().items())
        code = cli.main(["trace", str(path), "--cap", str(cap), "--init", init])
        configs = list(iter_trace(com, store, cap))
        done = configs[-1].is_terminal()
        want = [cfg.render() for cfg in configs] + [f"steps: {len(configs) - 1}" if done else f"step-limit: {cap}"]
        assert capsys.readouterr().out.splitlines() == want
        assert code == (0 if done else 2)
    assert min(shapes.values()) >= 100, shapes


def test_long_straight_line_program_parses_and_traces(tmp_path):
    text = " ; ".join(f"x{i % 7} := {i + 1}" for i in range(100_000))
    path = tmp_path / "flat.imp"
    path.write_text(text + "\n", encoding="utf-8")
    p = run_cli("parse", str(path))
    assert p.returncode == 0
    assert json.loads(p.stdout) == {"pretty": text}
    p = run_cli("trace", str(path), "--cap", "3", env_extra={"PYTHONIOENCODING": "utf-8"})
    assert p.returncode == 2
    after_one = text.split(" ; ", 1)[1]
    after_two = text.split(" ; ", 2)[2]
    assert p.stdout.splitlines() == [
        f"⟨{text}, {{}}⟩",
        f"⟨SKIP ; {after_one}, {{x0: 1}}⟩",
        f"⟨{after_one}, {{x0: 1}}⟩",
        f"⟨SKIP ; {after_two}, {{x0: 1, x1: 2}}⟩",
        "step-limit: 3",
    ]


def test_long_plus_chain_parses_and_prints(tmp_path):
    text = "x := " + " + ".join(["1"] * 10_000)
    assert pretty(parse_com(text)) == text
    path = tmp_path / "plus.imp"
    path.write_text(text + "\n", encoding="utf-8")
    p = run_cli("parse", str(path))
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == {"pretty": text}


def test_long_not_chain_parses_and_prints(tmp_path):
    text = "IF " + "! " * 10_000 + "x < 1 THEN SKIP ELSE SKIP FI"
    assert pretty(parse_com(text)) == text
    path = tmp_path / "not.imp"
    path.write_text(text + "\n", encoding="utf-8")
    p = run_cli("parse", str(path))
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == {"pretty": text}


def test_long_and_chain_parses_and_prints(tmp_path):
    text = "IF " + " && ".join(["x < 1"] * 10_000) + " THEN SKIP ELSE SKIP FI"
    assert pretty(parse_com(text)) == text
    path = tmp_path / "and.imp"
    path.write_text(text + "\n", encoding="utf-8")
    p = run_cli("parse", str(path))
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == {"pretty": text}


# Long chains that `aval` and `bval` walk in a loop, with the final store
# each semantics and the oracle must reach.
LONG_CHAINS = {
    "plus": ("x := " + " + ".join(["1"] * 10_000), {"x": 10_000}),
    "even_nots": ("WHILE " + "! " * 10_000 + "x < 3 DO x := x + 1 OD", {"x": 3}),
    "odd_nots": ("WHILE " + "! " * 10_001 + "x < 3 DO x := x + 1 OD ; y := 1", {"y": 1}),
    "ands": ("WHILE " + "0 < 1 && " * 9_999 + "x < 3 DO x := x + 1 OD", {"x": 3}),
}


@pytest.mark.parametrize("chain", sorted(LONG_CHAINS))
def test_run_long_chains_under_all_semantics_with_the_oracle(tmp_path, capsys, chain):
    text, final = LONG_CHAINS[chain]
    path = tmp_path / f"{chain}.imp"
    path.write_text(text + "\n", encoding="utf-8")
    for sem in cli._SEM_CHOICES:
        assert cli.main(["run", str(path), "--sem", sem, "--fuel", "100", "--oracle"]) == 0, sem
        doc = json.loads(capsys.readouterr().out)
        assert doc["store"] == final, sem
        assert doc["oracle_steps"] > 0, sem


DEEP = 10_000  # ten times the default recursion limit

# Commands nested 10,000 deep, with the final store and the oracle's steps.
DEEP_PROGRAMS = {
    "seq-left": (
        "(" * (DEEP - 1) + "x := 1" + " ; x := x + 1)" * (DEEP - 1) + " ; x := x + 1",
        {"x": DEEP + 1},
        2 * DEEP + 1,
    ),
    "seq-right": ("x := x + 1 ; " * DEEP + "SKIP", {"x": DEEP}, 2 * DEEP),
    "if": ("IF x < 1 THEN " * DEEP + "y := 1" + " ELSE SKIP FI" * DEEP, {"y": 1}, DEEP + 1),
    "while": ("WHILE x < 1 DO " * DEEP + "x := 1" + " OD" * DEEP, {"x": 1}, 5 * DEEP + 1),
}


@pytest.mark.parametrize("shape", DEEP_PROGRAMS)
def test_deep_commands_run_under_all_semantics_and_trace(tmp_path, capsys, shape):
    text, final, steps = DEEP_PROGRAMS[shape]
    path = tmp_path / f"{shape}.imp"
    path.write_text(text + "\n", encoding="utf-8")
    for sem in cli._SEM_CHOICES:
        assert cli.main(["run", str(path), "--sem", sem, "--fuel", "100000", "--oracle", "--cap", "100000"]) == 0, sem
        doc = json.loads(capsys.readouterr().out)
        assert (doc["store"], doc["oracle_steps"]) == (final, steps), sem
    assert cli.main(["trace", str(path), "--cap", "3"]) == 2
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (len(lines), lines[0], lines[-1], err) == (5, f"⟨{text}, {{}}⟩", "step-limit: 3", "")


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


@pytest.mark.parametrize("pid", ["P99", "P1"])
def test_check_ids_with_all_is_a_usage_error(pid):
    p = run_cli("check", pid, "--all")
    assert p.returncode == 1
    assert p.stdout == ""
    assert p.stderr == "clockwork: give property ids or --all, not both\n"


@pytest.mark.parametrize("pids", [("P1", "P1"), ("P2", "RT", "P2")])
def test_check_repeated_id_is_a_usage_error(pids):
    p = run_cli("check", *pids, "--cases", "2", "--seed", "1")
    assert p.returncode == 1
    assert p.stdout == ""
    assert p.stderr == f"clockwork: property id {pids[0]!r} given twice\n"


def _check_reports(argv, capsys):
    """Exit code and reports of one in-process `check`, without elapsed_ms."""
    code = cli.main(["check", *argv])
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for r in reports:
        del r["elapsed_ms"]
    return code, reports


def _reports_alone(shared, args, capsys):
    return [_check_reports([r["property"], *args], capsys)[1][0] for r in shared]


# The ids of the acceptance gate, reordered, the pair that draws extras
# after the shared triple, and every property.
_SHARED_IDS = [
    ("P1", "P2", "P3", "P4", "P6", "P7", "P8"),
    ("P8", "P6", "P3", "P1"),
    ("P6", "P8"),
    ("--all",),
]


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("ids", _SHARED_IDS, ids=" ".join)
def test_check_prints_each_report_as_the_property_checked_alone(capsys, seed, ids):
    args = ["--seed", str(seed), "--cases", "30"]
    code, shared = _check_reports([*ids, *args], capsys)
    assert code == 0
    assert [r["property"] for r in shared] == list(PROPERTY_IDS if ids == ("--all",) else ids)
    assert shared == _reports_alone(shared, args, capsys)


def _break_cval(monkeypatch) -> None:
    real_cval = testkit.cval

    def bad_cval(c, s, t):
        r = real_cval(c, s, t)
        if r is not None and t > 4:
            return (r[0], t + 1)  # invent extra leftover fuel
        return r

    monkeypatch.setattr(testkit, "cval", bad_cval)


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("ids", _SHARED_IDS[:3], ids=" ".join)
def test_failing_shared_campaigns_report_and_replay_as_alone(monkeypatch, capsys, seed, ids):
    _break_cval(monkeypatch)
    args = ["--seed", str(seed), "--cases", "60"]
    code, shared = _check_reports([*ids, *args], capsys)
    assert code == 2
    assert shared == _reports_alone(shared, args, capsys)
    failures = [(r["property"], f) for r in shared for f in r["failures"]]
    assert any(f.get("shrunk") for _, f in failures)
    for pid, f in failures:
        assert replay_case(pid, GenConfig(seed=seed), f["case"]) == (f["inputs"], f"fail: expected {f['expected']}; got {f['actual']}")


def _use_cpus(monkeypatch, n: int) -> None:
    """Lets `check` and `run` see n CPUs: `check` runs on n processes
    where it may fork, and `run --oracle` on 2 where n > 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _check_outputs(argv, capsys, monkeypatch, cpus):
    """(exit code, stdout without elapsed_ms, stderr) of one in-process
    `check` on `cpus` CPUs, each with every worker reaped."""
    _use_cpus(monkeypatch, cpus)
    code = cli.main(["check", *argv])
    captured = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, re.sub(r',"elapsed_ms":[0-9]+', "", captured.out), captured.err


def test_check_forks_one_worker_per_cpu_up_to_the_cases(monkeypatch):
    # Without it the tests of the worker count below would run one process.
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        assert [testkit.Campaigns(["P1"], GenConfig(seed=1), n).workers for n in (0, 1, 2, 60)] == [
            1, 1, min(cpus, 2), cpus
        ]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert testkit.Campaigns(["P1"], GenConfig(seed=1), 60).workers == 1


# At seed 12, P5 skips cases 7, 17, 18, 32, 41 and 42: some on every worker.
@pytest.mark.parametrize(
    "argv",
    [
        ("--all", "--seed", "12", "--cases", "60"),
        ("--all", "--seed", "5", "--cases", "0"),
        ("--all", "--seed", "5", "--cases", "1"),
        ("--all", "--seed", "5", "--cases", "2"),
    ],
    ids=" ".join,
)
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, capsys, argv):
    alone = _check_outputs(argv, capsys, monkeypatch, 1)
    assert alone[0] == 0 and alone[1].count("\n") == len(PROPERTY_IDS) and alone[2] == ""
    for cpus in (2, 3):
        assert _check_outputs(argv, capsys, monkeypatch, cpus) == alone


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("ids", _SHARED_IDS[:3], ids=" ".join)
def test_failures_do_not_depend_on_the_worker_count(monkeypatch, capsys, seed, ids):
    _break_cval(monkeypatch)
    argv = [*ids, "--seed", str(seed), "--cases", "60"]
    alone = _check_outputs(argv, capsys, monkeypatch, 1)
    for cpus in (2, 3):
        assert _check_outputs(argv, capsys, monkeypatch, cpus) == alone
    reports = [json.loads(line) for line in alone[1].splitlines()]
    cases = [f["case"] for r in reports for f in r["failures"]]
    assert alone[0] == 2 and len(cases) > 3
    for r in reports:
        cases = [f["case"] for f in r["failures"]]
        assert cases == sorted(cases)
        for f in r["failures"]:
            got = replay_case(r["property"], GenConfig(seed=seed), f["case"])
            assert got == (f["inputs"], f"fail: expected {f['expected']}; got {f['actual']}")


def _raise_on_cases(monkeypatch, pid, seed, errors) -> None:
    """Makes cval_guard raise errors[k] on the triple of case k of `pid`."""
    triples = {}
    for k, error in errors.items():
        inputs = testkit._gen_case(pid, testkit.case_stream(seed, k))[0]
        triples[(inputs["program"], inputs["store"], inputs["fuel"])] = error
    real = testkit.cval_guard

    def cval_guard(c, s, t):
        error = triples.get((c, s, t))
        if error is not None:
            raise error
        return real(c, s, t)

    monkeypatch.setattr(testkit, "cval_guard", cval_guard)


# Case 3 is the second worker's on two CPUs; the first case that raises
# names the error, whichever process runs it.
@pytest.mark.parametrize(
    "errors",
    [{3: RecursionError}, {3: RecursionError, 4: MemoryError}, {2: MemoryError, 3: RecursionError}],
    ids=["worker", "worker-first", "parent-first"],
)
def test_passing_failing_and_raising_checks_leave_no_process(monkeypatch, capsys, errors):
    argv = ["P2", "P4", "P3", "--seed", "9", "--cases", "12"]  # only P3 calls cval_guard
    passing = _check_outputs(argv, capsys, monkeypatch, 2)
    assert passing[0] == 0
    _break_cval(monkeypatch)
    failing = _check_outputs(argv, capsys, monkeypatch, 2)
    assert failing[0] == 2 and failing == _check_outputs(argv, capsys, monkeypatch, 1)
    _raise_on_cases(monkeypatch, "P3", 9, errors)
    raising = _check_outputs(argv, capsys, monkeypatch, 2)
    first = errors[min(errors)].__name__
    reports = "".join(failing[1].splitlines(keepends=True)[:2])  # P2's and P4's
    assert raising == (1, reports, f"clockwork: check: input too deep or too large ({first})\n")
    assert raising == _check_outputs(argv, capsys, monkeypatch, 1)


def _reports(property_ids, cfg, cases) -> list:
    """The reports of one `Campaigns` over `property_ids`, without elapsed_ms."""
    with testkit.Campaigns(property_ids, cfg, cases) as campaigns:
        reports = [testkit.run_property(pid, cfg, cases, campaigns).to_json_dict() for pid in property_ids]
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]


def test_an_interrupted_or_lost_worker_leaves_no_process(monkeypatch):
    _use_cpus(monkeypatch, 2)
    parent = os.getpid()
    with monkeypatch.context() as m:
        _raise_on_cases(m, "P3", 9, {2: KeyboardInterrupt})
        with pytest.raises(KeyboardInterrupt):
            testkit.run_property("P3", GenConfig(seed=9), 12)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # A worker lost in the first campaign: its shares of both run here.
    _break_cval(monkeypatch)
    cfg = GenConfig(seed=9)
    _use_cpus(monkeypatch, 1)
    alone = _reports(("P2", "P3"), cfg, 12)
    assert any(r["failures"] for r in alone)
    real = testkit.cval

    def cval(c, s, t):
        if os.getpid() != parent:
            os._exit(3)
        return real(c, s, t)

    monkeypatch.setattr(testkit, "cval", cval)
    _use_cpus(monkeypatch, 2)
    assert _reports(("P2", "P3"), cfg, 12) == alone
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_call(monkeypatch, name: str, which: int) -> list:
    """Makes call `which` (0 the first) of os.fork or os.pipe, as `name`
    says, raise in this process as on a host with no process or file to
    spare; returns the pids that os.fork returns in this process."""
    forks = _count_forks(monkeypatch)
    real = getattr(os, name)
    calls = []

    def call():
        calls.append(name)
        if len(calls) == which + 1:
            if name == "fork":
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            raise OSError(errno.EMFILE, "Too many open files")
        return real()

    monkeypatch.setattr(os, name, call)
    return forks


# On three CPUs two children are forked; one of them cannot be.
_FAILED_CALLS = pytest.mark.parametrize(
    "name, which", [("fork", 1), ("fork", 0), ("pipe", 0)], ids=["second-fork", "first-fork", "first-pipe"]
)


@_FAILED_CALLS
def test_a_check_that_cannot_fork_runs_in_process(monkeypatch, capsys, name, which):
    argv = ["P1", "P5", "--seed", "12", "--cases", "40"]
    alone = _check_outputs(argv, capsys, monkeypatch, 1)
    forks = _fail_call(monkeypatch, name, which)
    assert _check_outputs(argv, capsys, monkeypatch, 3) == alone
    assert len(forks) == 1  # the other worker still runs its share


def test_a_worker_error_arrives_as_itself(monkeypatch):
    class Unpicklable(Exception):  # a local class pickles by a name no module has
        pass

    error = Unpicklable("on case 3")  # case 3 is the worker's on two CPUs
    _raise_on_cases(monkeypatch, "P3", 9, {3: error})
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        with pytest.raises(Unpicklable) as raised:
            testkit.run_property("P3", GenConfig(seed=9), 12)
        assert raised.value is error
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# Campaign seeds whose case 0 is oracle step-limited: the first three of
# the benchmark's oracle_sweep panel.
_STEP_LIMITED_SEEDS = [1898351392483613935, 3682447102817607390, 497292374287994049]


def _step_limited(seed: int, k: int = 0) -> bool:
    inputs = testkit._gen_case("P10", testkit.case_stream(seed, k))[0]
    return isinstance(testkit.run_oracle(inputs["program"], inputs["store"], testkit.ORACLE_CAP), testkit.StepLimit)


@pytest.mark.parametrize("seed", _STEP_LIMITED_SEEDS)
@pytest.mark.parametrize("ids", [("P10",), ("P9", "P10")], ids=" ".join)
def test_step_limited_sweeps_do_not_depend_on_the_cpu_count(monkeypatch, capsys, seed, ids):
    assert _step_limited(seed)
    argv = [*ids, "--seed", str(seed), "--cases", "1"]
    alone = _check_outputs(argv, capsys, monkeypatch, 1)
    assert alone[0] == 0 and alone[1].count("\n") == len(ids) and alone[2] == ""
    for cpus in (2, 3):
        assert _check_outputs(argv, capsys, monkeypatch, cpus) == alone


def _break_sweep(monkeypatch, fuels, error=None) -> None:
    """Makes cval_tick, as P10's sweep calls it, succeed on any input at
    `fuels`, or raise `error` there."""
    real = testkit.SEMANTICS["cval_tick"]

    def cval_tick(c, s, t):
        if t in fuels:
            if error is not None:
                raise error
            return (s, 0)
        return real(c, s, t)

    monkeypatch.setitem(testkit.SEMANTICS, "cval_tick", cval_tick)


# On two CPUs the calling process sweeps the even fuels and its helper
# the odd ones; on three, process j sweeps the fuels j mod 3.
@pytest.mark.parametrize(
    "fuels, error",
    [({2}, None), ({7}, None), ({0, 256}, None), ({256}, None), ({1, 2}, None), ({5}, RecursionError)],
    ids=["even", "odd", "both-ends", "last", "helper-lower", "helper-raises"],
)
def test_broken_sweeps_fail_as_on_one_cpu(monkeypatch, capsys, fuels, error):
    seed = _STEP_LIMITED_SEEDS[0]
    _break_sweep(monkeypatch, fuels, error)
    argv = ["P9", "P10", "--seed", str(seed), "--cases", "1"]
    alone = _check_outputs(argv, capsys, monkeypatch, 1)
    for cpus in (2, 3):
        assert _check_outputs(argv, capsys, monkeypatch, cpus) == alone
    p9, *p10 = [json.loads(line) for line in alone[1].splitlines()]
    assert p9["property"] == "P9" and p9["failures"] == []
    if error is not None:
        assert (alone[0], p10, alone[2]) == (1, [], f"clockwork: check: input too deep or too large ({error.__name__})\n")
        with pytest.raises(error):
            replay_case("P10", GenConfig(seed=seed), 0)
        return
    (f,) = p10[0]["failures"]
    assert (alone[0], alone[2]) == (2, "")
    assert f["actual"].startswith(f"cval_tick at fuel {min(fuels)}: ") and f["shrunk"]
    assert replay_case("P10", GenConfig(seed=seed), 0) == (f["inputs"], f"fail: expected {f['expected']}; got {f['actual']}")


def _runs_and_forks(monkeypatch, capsys, log, argv, cpus):
    """The outputs of `check` on `cpus` CPUs, the ("name", fuel) runs of
    P10's sweeps and the number of forks, counted in every process
    through `log`, a file that each appends to."""
    log.touch()

    def append(line: str) -> None:
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    with monkeypatch.context() as m:
        for name, real in list(testkit.SEMANTICS.items()):

            def run(c, s, t, name=name, real=real):
                append(f"{name} {t}\n")
                return real(c, s, t)

            m.setitem(testkit.SEMANTICS, name, run)
        real_fork = os.fork

        def fork():
            append("fork\n")
            return real_fork()

        m.setattr(os, "fork", fork)
        outputs = _check_outputs(argv, capsys, monkeypatch, cpus)
    lines = log.read_text().splitlines()
    return outputs, Counter(line for line in lines if line != "fork"), lines.count("fork")


@pytest.mark.parametrize(
    "argv, cpus, forks, sweeps",
    [
        (["--seed", str(_STEP_LIMITED_SEEDS[0]), "--cases", "1"], 2, 1, 1),  # one sweep helper
        (["--seed", str(_STEP_LIMITED_SEEDS[0]), "--cases", "1"], 3, 2, 1),
        (["--seed", "1", "--cases", "1"], 2, 0, 0),  # a terminating case sweeps nothing
        (["--seed", "5", "--cases", "60"], 2, 1, 4),  # the worker holds the other CPU: no helper
    ],
    ids=["limited-2", "limited-3", "terminating", "campaign"],
)
def test_sweeps_run_each_fuel_and_semantics_once(monkeypatch, capsys, tmp_path, argv, cpus, forks, sweeps):
    argv = ["P10", *argv]
    serial = _runs_and_forks(monkeypatch, capsys, tmp_path / "serial", argv, 1)
    assert serial[0][0] == 0 and serial[2] == 0
    assert serial[1] == Counter({f"{name} {t}": sweeps for name in testkit.SEMANTICS for t in range(257) if sweeps})
    assert _runs_and_forks(monkeypatch, capsys, tmp_path / "split", argv, cpus) == (serial[0], serial[1], forks)


def test_a_lost_or_interrupted_sweep_helper_leaves_no_process(monkeypatch):
    parent = os.getpid()
    cfg = GenConfig(seed=_STEP_LIMITED_SEEDS[0])
    real = testkit.SEMANTICS["ev"]

    def lost(c, s, t):
        if os.getpid() != parent:
            os._exit(3)
        return real(c, s, t)

    def interrupted(c, s, t):
        if t == 8 and os.getpid() == parent:
            raise KeyboardInterrupt
        return real(c, s, t)

    _use_cpus(monkeypatch, 1)
    serial = _reports(("P10",), cfg, 1)
    _use_cpus(monkeypatch, 2)
    with monkeypatch.context() as m:
        m.setitem(testkit.SEMANTICS, "ev", lost)
        assert _reports(("P10",), cfg, 1) == serial  # the lost helper's fuels swept here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with monkeypatch.context() as m:
        m.setitem(testkit.SEMANTICS, "ev", interrupted)
        with pytest.raises(KeyboardInterrupt):
            testkit.run_property("P10", cfg, 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_FAILED_CALLS
def test_a_sweep_that_cannot_fork_runs_in_process(monkeypatch, capsys, name, which):
    argv = ["P9", "P10", "--seed", str(_STEP_LIMITED_SEEDS[1]), "--cases", "1"]
    alone = _check_outputs(argv, capsys, monkeypatch, 1)
    forks = _fail_call(monkeypatch, name, which)
    assert _check_outputs(argv, capsys, monkeypatch, 3) == alone
    assert len(forks) == 1


# A counting loop of 12,004 oracle steps, past the oracle's first leg.
COUNT = "x := 0 ; WHILE x < 3000 DO x := x + 1 OD\n"
COUNT_STEPS = 4 * 3000 + 4
ORACLE = ["--oracle", "--cap", "100000"]
DIVERGE = str(README.parent / "programs" / "diverge.imp")


def _run_outputs(argv, capsys, monkeypatch, cpus):
    """(exit code, stdout, stderr) of one in-process `run` on `cpus` CPUs,
    with its helper, if any, reaped."""
    _use_cpus(monkeypatch, cpus)
    code = cli.main(["run", *argv])
    captured = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, captured.out, captured.err


def _count_forks(monkeypatch) -> list:
    """Records the pid each os.fork returns in this process."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(real_fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def count_imp(tmp_path):
    path = tmp_path / "count.imp"
    path.write_text(COUNT, encoding="utf-8")
    return str(path)


_LONG_RUNS = {
    "final": ("--fuel", "100000"),
    "search": ("--fuel", "search:100000"),
    "timeout": ("--fuel", "50"),
}


@pytest.mark.parametrize("sem", cli._SEM_CHOICES)
@pytest.mark.parametrize("case", [*_LONG_RUNS, "diverge"])
def test_run_reports_do_not_depend_on_the_cpu_count(monkeypatch, capsys, count_imp, sem, case):
    if case == "diverge":
        argv = [DIVERGE, "--sem", sem, "--fuel", "100", "--oracle", "--cap", "5000"]
    else:
        argv = [count_imp, "--sem", sem, *_LONG_RUNS[case], *ORACLE]
    alone = _run_outputs(argv, capsys, monkeypatch, 1)
    doc = json.loads(alone[1])
    assert doc["oracle_steps"] == (None if case == "diverge" else COUNT_STEPS) and alone[2] == ""
    assert alone[0] == (2 if case in ("diverge", "timeout") else 0)
    for cpus in (2, 3):
        assert _run_outputs(argv, capsys, monkeypatch, cpus) == alone


@pytest.mark.parametrize(
    "oracle, cpus, forks",
    [(ORACLE, 2, 1), (ORACLE, 3, 1), ([], 2, 0), (ORACLE, 1, 0)],
    ids=["helper-2", "helper-3", "no-oracle", "one-cpu"],
)
def test_a_long_run_forks_one_oracle_helper_where_it_may(monkeypatch, capsys, count_imp, oracle, cpus, forks):
    for sem in cli._SEM_CHOICES:
        with monkeypatch.context() as m:
            counted = _count_forks(m)
            code, out, err = _run_outputs([count_imp, "--sem", sem, "--fuel", "100000", *oracle], capsys, m, cpus)
        assert (code, err, len(counted)) == (0, "", forks), sem
        assert json.loads(out).get("oracle_steps") == (COUNT_STEPS if oracle else None), sem


def test_runs_that_end_within_the_first_leg_fork_nothing(monkeypatch, capsys):
    # Every row of the golden table: loop.imp ends in 16 steps, and
    # diverge.imp runs to its cap of 100, below the first leg's.
    assert cli._ORACLE_FIRST_LEG > 100
    forks = _count_forks(monkeypatch)
    for row in (GOLDEN / "run_table.txt").read_text(encoding="utf-8").splitlines():
        program, sem, fuel, code, out = row.split(" ", 4)
        path = str(README.parent / "programs" / f"{program}.imp")
        argv = [path, "--sem", sem, "--fuel", fuel, "--oracle", "--cap", "100"]
        assert _run_outputs(argv, capsys, monkeypatch, 2) == (int(code), out + "\n", ""), row
    assert forks == []


def _record_oracle_caps(monkeypatch, parent, in_helper=None) -> list:
    """Records the cap of each oracle run in this process; in a helper,
    calls `in_helper` first, when given."""
    caps = []
    real = cli.run_oracle

    def run_oracle(c, s, cap):
        if os.getpid() != parent:
            if in_helper is not None:
                in_helper()
        else:
            caps.append(cap)
        return real(c, s, cap)

    monkeypatch.setattr(cli, "run_oracle", run_oracle)
    return caps


def _no_answer():
    os._exit(3)


def _raise_in_helper():
    raise RuntimeError("oracle failed in the helper")


@pytest.mark.parametrize(
    "in_helper, failed_call",
    [(_no_answer, None), (_raise_in_helper, None), (None, "fork"), (None, "pipe")],
    ids=["exits-without-answer", "oracle-raises", "cannot-fork", "cannot-pipe"],
)
def test_a_run_whose_helper_fails_runs_the_oracle_in_process(monkeypatch, capsys, count_imp, in_helper, failed_call):
    argv = [count_imp, "--sem", "cval", "--fuel", "100000", *ORACLE]
    alone = _run_outputs(argv, capsys, monkeypatch, 1)
    caps = _record_oracle_caps(monkeypatch, os.getpid(), in_helper)
    if failed_call is not None:
        _fail_call(monkeypatch, failed_call, 0)
    assert _run_outputs(argv, capsys, monkeypatch, 2) == alone
    assert caps == [cli._ORACLE_FIRST_LEG, 100000]  # the first leg, then the whole run here


@pytest.mark.parametrize("error", [RecursionError, KeyboardInterrupt])
def test_an_evaluator_that_raises_beside_the_helper_leaves_no_process(monkeypatch, capsys, count_imp, error):
    def cval(c, s, t):
        raise error

    monkeypatch.setitem(cli.SEMANTICS, "cval", cval)
    forks = _count_forks(monkeypatch)
    _use_cpus(monkeypatch, 2)
    argv = ["run", count_imp, "--sem", "cval", "--fuel", "100000", *ORACLE]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    else:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "clockwork: run: input too deep or too large (RecursionError)\n"
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_too_deep_for_the_oracle_fails_as_on_one_cpu(monkeypatch, capsys, tmp_path):
    # The oracle's first leg raises too; the evaluator's error is reported.
    path = tmp_path / "deep_plus.imp"
    path.write_text("x := " + "1 + (" * 1999 + "1" + ")" * 1999 + "\n", encoding="utf-8")
    argv = [str(path), "--sem", "cval", "--fuel", "10", "--oracle"]
    alone = _run_outputs(argv, capsys, monkeypatch, 1)
    assert alone == (1, "", "clockwork: run: input too deep or too large (RecursionError)\n")
    forks = _count_forks(monkeypatch)
    assert _run_outputs(argv, capsys, monkeypatch, 2) == alone
    assert forks == []


@pytest.mark.parametrize("evaluator_raises", [True, False])
def test_the_evaluators_error_comes_before_the_oracles(monkeypatch, capsys, count_imp, evaluator_raises):
    def run_oracle(c, s, cap):
        raise MemoryError

    monkeypatch.setattr(cli, "run_oracle", run_oracle)
    if evaluator_raises:

        def cval(c, s, t):
            raise RecursionError

        monkeypatch.setitem(cli.SEMANTICS, "cval", cval)
    argv = [count_imp, "--sem", "cval", "--fuel", "100000", *ORACLE]
    error = "RecursionError" if evaluator_raises else "MemoryError"
    for cpus in (1, 2):
        assert _run_outputs(argv, capsys, monkeypatch, cpus) == (1, "", f"clockwork: run: input too deep or too large ({error})\n")


_TRIPLE_IDS = ["P1", "P2", "P3", "P6", "P7", "P8"]


def _count_stores(monkeypatch) -> list:
    """Records each generated store; each (program, store, fuel) triple draws one."""
    stores = []
    real_gen_store = testkit._gen_store

    def gen_store(rng):
        stores.append(real_gen_store(rng))
        return stores[-1]

    monkeypatch.setattr(testkit, "_gen_store", gen_store)
    return stores


def _draws_of_own_triples(monkeypatch, capsys, cpus):
    """The stores drawn in this process by a `check` on `cpus` CPUs, and
    those of its own cases' triples: cases 0, cpus, 2 * cpus, ..."""
    _use_cpus(monkeypatch, cpus)
    own = [testkit._gen_case("P1", testkit.case_stream(42, k))[0]["store"] for k in range(0, 50, cpus)]
    stores = _count_stores(monkeypatch)
    assert _check_reports([*_TRIPLE_IDS, "--seed", "42", "--cases", "50"], capsys)[0] == 0
    return stores, own


def test_check_draws_each_shared_triple_once(monkeypatch, capsys):
    stores, own = _draws_of_own_triples(monkeypatch, capsys, 1)
    assert stores == own  # 50, not 6 x 50


def test_each_worker_draws_each_of_its_shared_triples_once(monkeypatch, capsys):
    stores, own = _draws_of_own_triples(monkeypatch, capsys, 2)
    assert stores == own  # the 25 even cases, once each, in case order


def test_the_case_memo_holds_at_most_its_cap(monkeypatch, capsys):
    _use_cpus(monkeypatch, 1)
    monkeypatch.setattr(testkit, "_MEMO_CASES", 3)
    sizes = []
    real_run_property = cli.run_property

    def run_property(pid, cfg, cases, campaigns):
        report = real_run_property(pid, cfg, cases, campaigns)
        sizes.append(None if campaigns.memo is None else len(campaigns.memo))
        return report

    monkeypatch.setattr(cli, "run_property", run_property)
    stores = _count_stores(monkeypatch)
    args = ["--seed", "42", "--cases", "10"]
    code, shared = _check_reports([*_TRIPLE_IDS, *args], capsys)
    assert code == 0
    assert sizes == [3] * 6
    assert len(stores) == 3 + 6 * 7  # cases past the cap are drawn per property
    assert shared == _reports_alone(shared, args, capsys)
    assert sizes == [3] * 6 + [None] * 6  # a lone campaign keeps no memo


def _count_oracle_runs(monkeypatch, log) -> None:
    """Appends a line to `log` for each run of the oracle in testkit,
    in any process; testkit never calls run_oracle."""
    real = testkit.run_oracle_stats

    def run_oracle_stats(c, s, cap):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return real(c, s, cap)

    def run_oracle(c, s, cap):
        raise AssertionError("testkit runs the oracle through run_oracle_stats")

    monkeypatch.setattr(testkit, "run_oracle_stats", run_oracle_stats)
    monkeypatch.setattr(testkit, "run_oracle", run_oracle)


@pytest.mark.parametrize("cpus", [1, 2])
def test_check_p9_p10_runs_the_oracle_once_per_case(monkeypatch, capsys, tmp_path, cpus):
    args = ["--seed", "3", "--cases", "40"]
    assert any(_step_limited(3, k) for k in range(40))  # P10 sweeps some case
    _use_cpus(monkeypatch, cpus)
    log = tmp_path / "oracle_runs"
    _count_oracle_runs(monkeypatch, log)
    code, shared = _check_reports(["P9", "P10", *args], capsys)
    assert code == 0
    runs = log.read_text().splitlines()
    assert len(runs) == 40 and len(set(runs)) == cpus  # each worker runs its own cases'
    assert shared == _reports_alone(shared, args, capsys)


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
        [sys.executable, "-m", "clockwork", *args], capture_output=True, env=CLI_ENV
    )
    assert p.stdout == (GOLDEN / golden).read_bytes()


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ clockwork ...` line in the README's code blocks, with the
    lines shown after it up to the next `$` line or the block's end."""
    examples: list[tuple[str, list[str]]] = []
    shown = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ clockwork "):
            examples.append((line[2:], shown := []))
        elif line.startswith("```"):
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command,shown", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES])
def test_readme_examples_print_what_the_readme_shows(monkeypatch, capsys, command, shown):
    monkeypatch.chdir(README.parent)
    cli.main(shlex.split(command)[1:])
    assert capsys.readouterr().out.splitlines() == shown


def test_the_readme_has_examples():
    assert len(README_EXAMPLES) >= 3
