"""Tests of the benchmark itself: run with `python -m pytest perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run as bench

TINY = bench.Sizes(sweep_group=2, mix_cases=20, loop_n=50, big_leaves=16, trace_cap=5)
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_round(ctx: bench.Context) -> list[bench.Outcome]:
    return bench.measure(ctx.cw.cli.main, bench.WORKLOADS[ctx.workload](ctx), 0)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_outputs_check_at_tiny_size(workload, seed):
    outcomes = one_round(bench.setup(workload, seed, TINY))
    timed = [o for o in outcomes if o.op.timed]
    assert timed and all(o.ok for o in timed)


def test_session_loop_closed_forms_hold_at_other_sizes():
    for n in (1, 2, 7):
        outcomes = one_round(bench.setup("cli_session", 3, bench.Sizes(loop_n=n, big_leaves=2, trace_cap=1)))
        assert all(o.ok for o in outcomes if o.op.kind.startswith("run."))


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_a_wrong_evaluator_fails_operations(workload, monkeypatch):
    ctx = bench.setup(workload, 42, TINY)
    # Succeeds at any fuel and never changes the store.
    monkeypatch.setitem(ctx.cw.testkit.SEMANTICS, "cval", lambda c, s, t: (s, t))
    outcomes = one_round(ctx)
    failed = sum(not o.ok for o in outcomes if o.op.timed)
    assert failed > 0


def test_untraced_run_reports_the_end_to_end_metrics():
    ctx = bench.setup("property_mix", 42, TINY)
    metrics, _ = bench.run(ctx, 0, trace=False)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v in metrics.values())


def test_traced_run_reports_every_per_layer_metric_and_restores_clockwork():
    ctx = bench.setup("cli_session", 42, TINY)
    originals = dict(ctx.cw.testkit.SEMANTICS)
    metrics, outcomes = bench.run(ctx, 0, trace=True)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert ctx.cw.testkit.SEMANTICS == originals
    assert ctx.cw.cli.parse_com is ctx.cw.parser.parse_com
    assert ctx.cw.imp.Store.set.__name__ == "set"
    assert metrics["clocked_env.ev.calls"] > 0 and metrics["cli.evaluator_calls_per_run"] > 1
    assert metrics["parser.parse_com.calls"] > 0 and metrics["imp.pretty.calls"] > 0
    assert all(o.ok for o in outcomes if o.op.timed)


def test_fails_without_printing_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "oracle_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
