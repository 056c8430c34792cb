"""Acceptance gate: the eleven shipping criteria at full scale.

Each test prints one `[acceptance] ...` line (visible with -s or in the
failure report) and asserts the criterion at its stated tolerance:

  C1  defining-equation unit tests for every clause, < 1 s
  C2  P1 clock-never-increases, 10,000 triples, < 30 s
  C3  P2 fix_clock rewrite, 10,000 triples, exact equality
  C4  P3 cval_guard == cval, 10,000 triples
  C5  P4 unconditional SKIP-padding rewrite, 10,000 quadruples
  C6  P5 conditional rewrite, >= 200 premise-holding instances
  C7  P6/P7/P8(a,b,c) fuel structure, 10,000 triples each
  C8  P9/P10 oracle agreement, 2,000 programs, cap 10^4, < 2 min
  C9  parser round-trip, 5,000 programs
  C10 worked loop pinned + CLI golden files, byte-for-byte
  C11 stack safety at fuel 2,000,000, < 30 s
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from clockwork.clocked_env import ev, ev_min
from clockwork.clocked_state import cval, cval_guard, fix_clock
from clockwork.imp import Bc, If, Less, N, Plus, Seq, Set, Skip, Store, V, While, bval
from clockwork.parser import parse_com
from clockwork.testkit import GenConfig, run_property

SEED = 42
CFG = GenConfig(seed=SEED)
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
# the subprocesses run this checkout's package, installed or not
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _campaign(criterion: str, pid: str, cases: int, budget_s: float | None = None, **extra):
    t0 = time.perf_counter()
    report = run_property(pid, CFG, cases)
    elapsed = time.perf_counter() - t0
    ok = report.passed and (budget_s is None or elapsed < budget_s)
    detail = f"{pid} on {cases} cases, {len(report.failures)} failures, {elapsed:.1f}s"
    if extra.get("want_skips"):
        held = report.cases_run - report.skipped
        ok = ok and held >= 200
        detail += f", {held} premise-holding, {report.skipped} skipped"
    _report(criterion, ok, detail)
    return report


def test_c1_defining_equation_clauses():
    t0 = time.perf_counter()
    s0, s1 = Store(), Store({"x": 3, "y": -1})
    body = Set("x", Plus(V("x"), N(1)))
    w_t = While(Bc(True), Skip())
    w_g = While(Less(V("x"), N(2)), body)
    checks = 0

    for s in (s0, s1):
        for t in (0, 1, 2, 7):
            # --- ev: 6 clauses ---
            for c in (Skip(), body, w_g, Seq(Skip(), body)):
                assert ev(c, s, 0) is None  # clock 0 times out
            if t >= 1:
                assert ev(Skip(), s, t) == s
                assert ev(Set("x", N(9)), s, t) == s.set("x", 9)
                mid = ev(body, s, t - 1)
                assert ev(Seq(body, Skip()), s, t) == (None if mid is None else ev(Skip(), mid, t - 1))
                assert ev(If(Less(V("x"), N(1)), body, Skip()), s, t) == ev(
                    body if bval(Less(V("x"), N(1)), s) else Skip(), s, t - 1
                )
                assert ev(w_t, s, t) == ev(Seq(Skip(), w_t), s, t - 1)
                assert ev(While(Bc(False), body), s, t) == s
            # --- ev_min: 5 clauses ---
            assert ev_min(Skip(), s, t) == s
            assert ev_min(Set("y", N(2)), s, t) == s.set("y", 2)
            mid = ev_min(body, s, t)
            assert ev_min(Seq(body, body), s, t) == (None if mid is None else ev_min(body, mid, t))
            assert ev_min(If(Bc(True), body, Skip()), s, t) == ev_min(body, s, t)
            if bval(w_g.guard, s):
                want = None if t == 0 else ev_min(Seq(body, w_g), s, t - 1)
            else:
                want = s
            assert ev_min(w_g, s, t) == want
            # --- cval: 5 clauses ---
            assert cval(Skip(), s, t) == (s, t)
            assert cval(Set("x", N(5)), s, t) == (s.set("x", 5), t)
            mid = fix_clock(t, cval(body, s, t))
            assert cval(Seq(body, body), s, t) == (None if mid is None else cval(body, mid[0], mid[1]))
            assert cval(If(Bc(False), body, Skip()), s, t) == cval(Skip(), s, t)
            if bval(w_g.guard, s):
                want = None if t == 0 else cval(Seq(body, w_g), s, t - 1)
            else:
                want = (s, t)
            assert cval(w_g, s, t) == want
            # --- cval_guard: the Seq clause ---
            mid = cval_guard(body, s, t)
            if mid is None:
                assert cval_guard(Seq(body, body), s, t) is None
            else:
                s2, t2 = mid
                assert cval_guard(Seq(body, body), s, t) == cval_guard(body, s2, t if t < t2 else t2)
            checks += 1

    # --- fix_clock: 2 clauses ---
    assert fix_clock(5, None) is None
    assert fix_clock(5, (s1, 7)) == (s1, 5)
    assert fix_clock(5, (s1, 3)) == (s1, 3)

    elapsed = time.perf_counter() - t0
    _report(
        "C1 defining equations",
        elapsed < 1.0,
        f"all clauses of ev/ev_min/cval/cval_guard/fix_clock over {checks} store-fuel pairs, {elapsed:.2f}s",
    )


def test_c2_p1_clock_never_increases():
    _campaign("C2 P1 clock never increases", "P1", 10_000, budget_s=30.0)


def test_c3_p2_fix_clock_rewrite():
    _campaign("C3 P2 fix_clock rewrite", "P2", 10_000)


def test_c4_p3_guard_equivalence():
    _campaign("C4 P3 cval_guard == cval", "P3", 10_000)


def test_c5_p4_unconditional_rewrite():
    _campaign("C5 P4 unconditional rewrite", "P4", 10_000)


def test_c6_p5_conditional_rewrite():
    _campaign("C6 P5 conditional rewrite", "P5", 320, want_skips=True)


def test_c7_fuel_structure_properties():
    _campaign("C7 P6 fuel monotonicity", "P6", 10_000)
    _campaign("C7 P7 ev implies ev_min", "P7", 10_000)
    _campaign("C7 P8 additivity/domination/agreement", "P8", 10_000)


def test_c8_oracle_agreement():
    t0 = time.perf_counter()
    p9 = run_property("P9", CFG, 2_000)
    p10 = run_property("P10", CFG, 2_000)
    elapsed = time.perf_counter() - t0
    ok = p9.passed and p10.passed and elapsed < 120.0
    _report(
        "C8 P9/P10 oracle agreement",
        ok,
        f"2000 programs each, failures {len(p9.failures)}/{len(p10.failures)}, {elapsed:.1f}s",
    )


def test_c9_parser_roundtrip():
    _campaign("C9 parser round-trip", "RT", 5_000)


def test_c10_worked_example_and_goldens():
    prog = parse_com("x := 0 ; WHILE x < 3 DO x := x + 1 OD")
    ok = cval(prog, Store(), 3) == (Store({"x": 3}), 0) and cval(prog, Store(), 2) is None
    goldens = [
        ("run_loop_cval_fuel3.json", ["run", str(DATA / "loop.imp"), "--sem", "cval", "--fuel", "3"]),
        ("run_loop_cval_fuel2.json", ["run", str(DATA / "loop.imp"), "--sem", "cval", "--fuel", "2"]),
        ("run_skip_ev_fuel0.json", ["run", str(DATA / "skip.imp"), "--sem", "ev", "--fuel", "0"]),
        ("trace_loop.txt", ["trace", str(DATA / "loop.imp"), "--cap", "1000"]),
        ("trace_skip.txt", ["trace", str(DATA / "skip.imp")]),
    ]
    mismatches = []
    for name, args in goldens:
        out = subprocess.run(
            [sys.executable, "-m", "clockwork", *args], capture_output=True, env=CLI_ENV
        ).stdout
        if out != (GOLDEN / name).read_bytes():
            mismatches.append(name)
    ok = ok and not mismatches
    _report("C10 worked example + goldens", ok, f"5 golden files, mismatches: {mismatches or 'none'}")


def test_c11_stack_safety():
    prog = parse_com("x := 0 ; WHILE x < 1000000 DO x := x + 1 OD")
    want = Store({"x": 1_000_000})
    t0 = time.perf_counter()
    r_min = ev_min(prog, Store(), 2_000_000)
    r_cval = cval(prog, Store(), 2_000_000)
    elapsed = time.perf_counter() - t0
    ok = r_min == want and r_cval == (want, 1_000_000) and elapsed < 30.0
    _report("C11 stack safety", ok, f"fuel 2e6, million-iteration loop, {elapsed:.1f}s")
