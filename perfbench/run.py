#!/usr/bin/env python3
"""clockwork benchmark: closed-loop CLI workloads, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_sweep --seed 42 --seconds 30 --trace 0

Every operation is one in-process call of ``clockwork.cli.main(argv)``,
the command a user types, with stdout and stderr captured.  One process
and one thread issue the operations in a closed loop: each is issued
after the previous one returned, in rounds, until ``--seconds`` have
passed.  Every output is checked; a wrong output, an unexpected exit
code or an exception is a failed operation.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
The host's speed drifts by tens of percent from minute to minute, so
the timed end-to-end metrics are calibrated: a fixed reference loop
(:class:`Gauge`) is timed every REF_GAP_S between operations, and times
are scaled by REF_NOMINAL_S over its mean.  They read as wall-clock
figures on a host where the reference loop takes REF_NOMINAL_S.
``--trace 1`` first runs an untraced pass for a share of ``--seconds``,
then installs the tracer (see tracer.py) and replays exactly the same
operations, and prints the per-layer metrics.  No wrapper exists before
the untraced pass ends.  The last line of stdout is the JSON result;
the lines before it, starting with ``#``, are a human-readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Optional

sys.dont_write_bytecode = True  # leave no bytecode caches in the checkout

from tracer import BUSY, EVALUATORS, NAME, OP, PARENT, TAG, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MODULES = ("imp", "parser", "clocked_env", "clocked_state", "smallstep", "testkit", "cli")
SETUP_REPS = 7
REF_NOMINAL_S = 0.005  # the reference loop's time on a 2-core host with Python 3.11
REF_GAP_S = 0.1  # least time between two reference samples
TRACE_SHARE = 0.25  # share of --seconds spent on the untraced pass of a traced run
SEM_ARGS = {key: key.replace("_", "-") for key in EVALUATORS}
PANEL_SEED = 42  # stock seed of oracle_sweep's step-limited cases
GATE_IDS = ("P1", "P2", "P3", "P4", "P6", "P7", "P8")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests use smaller ones."""

    sweep_group: int = 10  # oracle_sweep invocations per round, one of them step-limited
    mix_cases: int = 1000  # property_mix cases per property per round (P5 and RT scaled)
    loop_n: int = 5000  # iterations of LOOP
    big_leaves: int = 4096  # generated leaves of BIG (about 200 KB of source)
    trace_cap: int = 50  # step cap of `trace BIG`
    flat_len: int = 2000  # statements of the FLAT probe


@dataclass
class Op:
    """One CLI invocation and the check of its output."""

    kind: str  # "check", "parse", "trace", "run.<sem>" or "probe.flat"
    argv: list[str]
    cases: int  # units of work counted by cases_per_s
    verify: Callable[[int, object], bool]  # (exit code, captured stdout) -> correct
    timed: bool = True


@dataclass
class Outcome:
    op: Op
    seconds: float
    ok: bool
    text: str = ""  # stdout of a `check`, kept for its reports


@dataclass
class Context:
    workload: str
    seed: int
    sizes: Sizes
    cw: SimpleNamespace  # the clockwork modules
    files: dict[str, str] = field(default_factory=dict)
    expect: dict[str, object] = field(default_factory=dict)
    setup_s: float = 0.0


class LineSink(io.TextIOBase):
    """Counts lines and keeps the tail, so a long trace is never held in memory."""

    def __init__(self) -> None:
        super().__init__()
        self.lines = 0
        self.tail = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.lines += s.count("\n")
        self.tail = (self.tail + s[-200:])[-200:]
        return len(s)

    def last_line(self) -> str:
        return self.tail.rstrip("\n").rsplit("\n", 1)[-1]


# --------------------------------------------------------------------------
# Host speed gauge


def _ref_tree(depth: int) -> tuple:
    return (1, "x") if depth == 0 else (2, _ref_tree(depth - 1), (0, depth))


_REF_TREE = _ref_tree(8)


def _ref_eval(node: tuple, env: dict) -> int:
    if node[0] == 0:
        return node[1]
    if node[0] == 1:
        return env.get(node[1], 0)
    return _ref_eval(node[1], env) + _ref_eval(node[2], env)


class Gauge:
    """Samples the host's speed with a fixed, clockwork-independent loop.

    The loop does what the evaluators do (tree walks, dict copies), so
    host contention slows it in proportion.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> float:
        env = {"x": 1}
        t0 = time.perf_counter()
        for _ in range(2800):
            env = dict(env)
            env["x"] = _ref_eval(_REF_TREE, env) % 97
        self.last = t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        return t1 - t0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REF_GAP_S:
            self.sample()

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the nominal reference speed."""
        return REF_NOMINAL_S / statistics.mean(self.samples)


# --------------------------------------------------------------------------
# Set-up: import plus input construction


def import_clockwork() -> SimpleNamespace:
    """A fresh import of every clockwork module from ``src``."""
    for name in [n for n in sys.modules if n == "clockwork" or n.startswith("clockwork.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{m: importlib.import_module(f"clockwork.{m}") for m in MODULES})


def _balanced_seq(cw, leaves: list) -> object:
    level = leaves
    while len(level) > 1:
        pairs = [cw.imp.Seq(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        level = pairs + level[len(level) - len(level) % 2 :]
    return level[0]


def build_session(ctx: Context) -> None:
    """Writes LOOP, BIG and FLAT for cli_session and records their expected outputs."""
    cw, sz = ctx.cw, ctx.sizes
    rng = random.Random(f"cli_session/{ctx.seed}")
    n = sz.loop_n
    m = rng.randint(max(1, n // 4), max(1, 3 * n // 4))
    da, db = rng.randint(1, 9), rng.randint(1, 9)
    loop = f"i := 0 ; WHILE i < {n} DO IF i < {m} THEN a := a + {da} ELSE b := b + {db} FI ; i := i + 1 OD\n"
    leaves = [cw.testkit.gen_com(cw.testkit.GenConfig(seed=rng.getrandbits(62)), 12) for _ in range(sz.big_leaves)]
    big = _balanced_seq(cw, leaves)
    flat = [f"x := {i}" for i in range(sz.flat_len)]
    fuel = 8 * n + 64
    ctx.expect = {
        "big": big,
        "big_text": None,  # set by the first `parse BIG` that re-parses to `big`
        "flat_pretty": " ; ".join(flat),
        "fuel": fuel,
        "store": {k: v for k, v in (("a", da * m), ("b", db * (n - m)), ("i", n)) if v},  # stores drop zeros
        "oracle_steps": 7 * n + 4,
        # Minimal sufficient fuel per semantics, in closed form for LOOP.
        "fuel_consumed": {"ev": 2 * n + 4, "ev_min": n, "cval": n, "cval_guard": n, "cval_tick": 6 * n + 3},
    }
    d = WORK / f"{ctx.workload}-{ctx.seed}"
    d.mkdir(parents=True, exist_ok=True)
    for name, text in (("loop", loop), ("big", cw.imp.pretty(big) + "\n"), ("flat", " ;\n".join(flat) + "\n")):
        path = d / f"{name}.imp"
        path.write_text(text, encoding="utf-8")
        ctx.files[name] = str(path)


def setup(workload: str, seed: int, sizes: Sizes = Sizes()) -> Context:
    """Set up SETUP_REPS times and keep the last.

    setup_s is the median over the repetitions, each calibrated by the
    gauge samples taken just before and after it.
    """
    gauge = Gauge()
    before = gauge.sample()
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ctx = Context(workload, seed, sizes, import_clockwork())
        if workload == "cli_session":
            build_session(ctx)
        seconds = time.perf_counter() - t0
        after = gauge.sample()
        times.append(seconds * REF_NOMINAL_S * 2 / (before + after))
        before = after
    ctx.setup_s = statistics.median(times)
    return ctx


# --------------------------------------------------------------------------
# Operations and workloads


def _check_op(ids: Iterable[str], seed: int, cases: int) -> Op:
    ids = list(ids)

    def verify(code, out) -> bool:
        reports = [json.loads(line) for line in out.getvalue().splitlines()]
        return (
            code == 0
            and [r["property"] for r in reports] == ids
            and all(r["cases"] == cases and r["failures"] == [] for r in reports)
        )

    argv = ["check", *ids, "--seed", str(seed), "--cases", str(cases)]
    return Op("check", argv, cases * len(ids), verify)


def _is_step_limited(ctx: Context, campaign_seed: int) -> bool:
    """Whether case 0 of a P9/P10 campaign is oracle step-limited.

    P9 and P10 draw the same program and store for the same case; the
    cheap P9 replay yields them, then the oracle classifies them.
    """
    tk = ctx.cw.testkit
    inputs, _ = tk.replay_case("P9", tk.GenConfig(seed=campaign_seed), 0)
    program = ctx.cw.parser.parse_com(inputs["program"])
    outcome = ctx.cw.smallstep.run_oracle(program, ctx.cw.imp.Store(inputs["store"]), tk.ORACLE_CAP)
    return isinstance(outcome, ctx.cw.smallstep.StepLimit)


def _campaign_seeds(ctx: Context, rng: random.Random, limited: bool) -> Iterator[int]:
    """Campaign seeds from `rng` whose case 0 is (or is not) step-limited."""
    while True:
        s = rng.getrandbits(62)
        if _is_step_limited(ctx, s) == limited:
            yield s


def oracle_sweep_rounds(ctx: Context) -> Iterator[list[Op]]:
    """`check P9 P10 --cases 1` per campaign seed; one step-limited case per round.

    About one P10 case in ten is step-limited, and it costs ~100x a
    terminating one and varies +-35% with the program.  So the mix is
    fixed at 1 in 10, and the step-limited cases come from one stream
    drawn at the stock seed, the same in every run; the run seed draws
    the terminating cases.
    """
    panel = _campaign_seeds(ctx, random.Random(f"oracle_sweep/{PANEL_SEED}/step-limited"), limited=True)
    fresh = _campaign_seeds(ctx, random.Random(f"oracle_sweep/{ctx.seed}"), limited=False)
    while True:
        seeds = [next(panel)] + [next(fresh) for _ in range(ctx.sizes.sweep_group - 1)]
        yield [_check_op(("P9", "P10"), s, 1) for s in seeds]


def property_mix_rounds(ctx: Context) -> Iterator[list[Op]]:
    """P1..P8 and RT in the acceptance gate's ratios (P5 at 3.2%, RT at 50%)."""
    rng = random.Random(f"property_mix/{ctx.seed}")
    n = ctx.sizes.mix_cases
    while True:
        s = rng.getrandbits(62)
        yield [_check_op(GATE_IDS, s, n), _check_op(("P5",), s, max(1, n * 32 // 1000)), _check_op(("RT",), s, max(1, n // 2))]


def cli_session_rounds(ctx: Context) -> Iterator[list[Op]]:
    """The FLAT probe (untimed), then `parse BIG`, `trace BIG`, and `run LOOP` per semantics."""
    cw, ex, files = ctx.cw, ctx.expect, ctx.files
    cap = ctx.sizes.trace_cap

    def verify_probe(code, out) -> bool:
        return code == 0 and json.loads(out.getvalue())["pretty"] == ex["flat_pretty"]

    def verify_parse(code, out) -> bool:
        if code != 0:
            return False
        text = json.loads(out.getvalue())["pretty"]
        if ex["big_text"] is None:
            if cw.parser.parse_com(text) != ex["big"]:
                return False
            ex["big_text"] = text
        return text == ex["big_text"]

    def verify_trace(code, sink) -> bool:
        return code == 2 and sink.lines == cap + 2 and sink.last_line() == f"step-limit: {cap}"

    def run_op(key: str) -> Op:
        def verify(code, out) -> bool:
            r = json.loads(out.getvalue())
            return (
                code == 0
                and r["outcome"] == "final"
                and r["store"] == ex["store"]
                and r["oracle_steps"] == ex["oracle_steps"]
                and r["fuel_consumed"] == ex["fuel_consumed"][key]
            )

        fuel = str(ex["fuel"])
        argv = ["run", files["loop"], "--sem", SEM_ARGS[key], "--fuel", fuel, "--oracle", "--cap", fuel]
        return Op(f"run.{key}", argv, 1, verify)

    ops = [
        Op("probe.flat", ["parse", files["flat"]], 0, verify_probe, timed=False),
        Op("parse", ["parse", files["big"]], 1, verify_parse),
        Op("trace", ["trace", files["big"], "--cap", str(cap)], 1, verify_trace),
        *(run_op(key) for key in EVALUATORS),
    ]
    while True:
        yield ops


WORKLOADS = {
    "oracle_sweep": oracle_sweep_rounds,
    "property_mix": property_mix_rounds,
    "cli_session": cli_session_rounds,
}


# --------------------------------------------------------------------------
# Execution


def execute(main: Callable, op: Op, failures: Counter) -> Outcome:
    """Runs one operation with its output captured, then checks the output."""
    out = LineSink() if op.kind == "trace" else io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(op.argv)
    except (Exception, SystemExit) as e:  # a crash is a failed operation, not a benchmark error
        seconds, ok, why = time.perf_counter() - t0, False, f"raised {type(e).__name__}: {str(e)[:200]}"
    else:
        seconds = time.perf_counter() - t0
        try:
            ok, why = op.verify(code, out), f"exit {code}, wrong output"
        except (ValueError, KeyError, TypeError) as e:  # not the expected JSON
            ok, why = False, f"exit {code}, unreadable output: {e}"
    if not ok:
        if not failures[op.kind]:  # one line per kind of failing operation
            print(f"perfbench: {' '.join(op.argv)}: {why}", file=sys.stderr)
        failures[op.kind] += 1
    return Outcome(op, seconds, ok, out.getvalue() if op.kind == "check" else "")


def measure(
    main: Callable,
    rounds: Iterable[list[Op]],
    seconds: float,
    tracer: Optional[Tracer] = None,
    gauge: Optional[Gauge] = None,
) -> list[Outcome]:
    """Runs whole rounds until `seconds` have passed (at least one round).

    With a gauge, samples the host's speed before, between and after the
    operations.
    """
    failures: Counter = Counter()
    done: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    if gauge is not None:
        gauge.sample()
    for ops in rounds:
        for op in ops:
            if tracer is not None:
                tracer.op = len(done)
            done.append(execute(main, op, failures))
            if gauge is not None:
                gauge.maybe_sample()
        if time.perf_counter() >= deadline:
            break
    if gauge is not None:
        gauge.sample()
    return done


def _median_by_kind(outcomes: list[Outcome]) -> dict[str, float]:
    by_kind: dict[str, list[float]] = defaultdict(list)
    for o in outcomes:
        if o.op.timed:
            by_kind[o.op.kind].append(o.seconds)
    return {k: statistics.median(v) for k, v in by_kind.items()}


def _timed_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes if o.op.timed)


def end_to_end(ctx: Context, outcomes: list[Outcome], gauge: Gauge) -> dict[str, float]:
    timed = [o for o in outcomes if o.op.timed]
    return {
        "setup_s": ctx.setup_s,
        "cases_per_s": sum(o.op.cases for o in timed) / (_timed_seconds(outcomes) * gauge.scale()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(ctx: Context, tracer: Tracer, untraced: list[Outcome], traced: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics from the traced pass; command times from the untraced one."""
    spans, own, counts = tracer.spans, tracer.self_ns(), tracer.counts()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(i)

    def busy_s(name: str) -> float:
        return sum(spans[i][BUSY] for i in by_name[name]) / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def tags(name: str) -> list:
        return [spans[i][TAG] for i in by_name[name] if spans[i][TAG] is not None]  # None: the call raised

    m: dict[str, float] = {}
    run_ops = {i: o.op.kind[4:] for i, o in enumerate(traced) if o.op.kind.startswith("run.")}
    first_call: dict[int, int] = {}
    calls_in_runs = 0
    for name in EVALUATORS.values():
        for i in by_name[name]:
            op = spans[i][OP]
            if op in run_ops:
                calls_in_runs += 1
                first_call[op] = min(first_call.get(op, i), i)
    for key, name in EVALUATORS.items():
        idx = by_name[name]
        m[f"{name}.calls"] = len(idx)
        m[f"{name}.busy_s"] = busy_s(name)
        m[f"{name}.timeout_ratio"] = ratio(sum(tags(name)), len(idx))
        unfold_ns = [spans[i][BUSY] / ctx.sizes.loop_n for op, i in first_call.items() if run_ops[op] == key]
        m[f"{name}.ns_per_unfold"] = statistics.median(unfold_ns) if unfold_ns else 0.0
    for key in ("imp.aval", "imp.bval", "imp.Store.set"):
        m[f"{key}.calls"] = counts.get(key, 0)

    for name in ("smallstep.run_oracle", "smallstep.run_oracle_stats"):
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.busy_s"] = busy_s(name)
    m["smallstep.iter_trace.busy_s"] = busy_s("smallstep.iter_trace")
    steps = sum(t[0] for n in ("smallstep.run_oracle", "smallstep.run_oracle_stats") for t in tags(n))
    steps += sum(max(0, t) for t in tags("smallstep.iter_trace"))
    oracle_s = m["smallstep.run_oracle.busy_s"] + m["smallstep.run_oracle_stats.busy_s"] + m["smallstep.iter_trace.busy_s"]
    m["smallstep.steps"] = steps
    m["smallstep.ns_per_step"] = ratio(oracle_s * 1e9, steps)

    m["parser.parse_com.calls"] = len(by_name["parser.parse_com"])
    m["parser.parse_com.busy_s"] = busy_s("parser.parse_com")
    m["parser.chars_per_s"] = ratio(sum(tags("parser.parse_com")), m["parser.parse_com.busy_s"])
    m["imp.pretty.calls"] = len(by_name["imp.pretty"])
    m["imp.pretty.busy_s"] = busy_s("imp.pretty")

    campaigns = by_name["testkit.run_property"]
    for pid in ctx.cw.testkit.PROPERTY_IDS:
        idx = [i for i in campaigns if spans[i][TAG][0] == pid]
        m[f"testkit.{pid}.cases_per_s"] = ratio(sum(spans[i][TAG][1] for i in idx), sum(spans[i][BUSY] for i in idx) / 1e9)
    m["testkit.self_s"] = sum(own[i] for i in campaigns) / 1e9
    m["testkit.fuel_search.calls"] = len(by_name["testkit.fuel_search"])
    m["testkit.fuel_search.busy_s"] = busy_s("testkit.fuel_search")
    p5 = [r for o in untraced + traced for line in o.text.splitlines() for r in [json.loads(line)] if r["property"] == "P5"]
    m["testkit.P5.premise_ratio"] = ratio(sum(r["cases"] - r["skipped"] for r in p5), sum(r["cases"] for r in p5))
    p10 = {i for i in campaigns if spans[i][TAG][0] == "P10"}
    p10_oracle = [spans[i][TAG][1] for i in by_name["smallstep.run_oracle"] if spans[i][PARENT] in p10 and spans[i][TAG]]
    m["testkit.P10.steplimited_ratio"] = ratio(sum(p10_oracle), len(p10_oracle))

    m["cli.self_s"] = sum(own[i] for i in by_name["cli.main"]) / 1e9
    m["cli.evaluator_calls_per_run"] = ratio(calls_in_runs, len(run_ops))
    medians = _median_by_kind(untraced)
    m["cli.parse_s"] = medians.get("parse", 0.0)
    m["cli.trace_s"] = medians.get("trace", 0.0)
    for key in EVALUATORS:
        m[f"cli.run_s.{key}"] = medians.get(f"run.{key}", 0.0)
    m["failed_ratio"] = ratio(sum(not o.ok for o in untraced), len(untraced))
    m["trace_overhead_s"] = _timed_seconds(traced) - _timed_seconds(untraced)
    return m


# --------------------------------------------------------------------------
# Entry point


def run(ctx: Context, seconds: float, trace: bool) -> tuple[dict[str, float], list[Outcome]]:
    """Measures one workload; returns (metrics, outcomes of every operation)."""
    main = ctx.cw.cli.main
    if not trace:
        gauge = Gauge()
        outcomes = measure(main, WORKLOADS[ctx.workload](ctx), seconds, gauge=gauge)
        mean_ms = statistics.mean(gauge.samples) * 1e3
        print(f"# reference loop: {mean_ms:.3f} ms mean over {len(gauge.samples)} samples, nominal {REF_NOMINAL_S * 1e3:g} ms")
        return end_to_end(ctx, outcomes, gauge), outcomes
    outcomes = measure(main, WORKLOADS[ctx.workload](ctx), seconds * TRACE_SHARE)
    tracer = Tracer(ctx.cw)
    tracer.install()
    try:
        replay = [[o.op for o in outcomes if o.op.timed]]  # probes stay out of every timing
        traced = measure(tracer.root(main), replay, math.inf, tracer)
    finally:
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{ctx.workload}-{ctx.seed}.tsv"
    tracer.write(spans_path)
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return per_layer(ctx, tracer, outcomes, traced), outcomes + traced


def summary(ctx: Context, outcomes: list[Outcome]) -> list[str]:
    """Human-readable lines: failures, and median wall time per command kind."""
    probes = [o for o in outcomes if not o.op.timed]
    failed = sum(not o.ok for o in outcomes)
    lines = [
        f"# {ctx.workload} seed={ctx.seed}: {len(outcomes)} operations, {failed} failed "
        f"({sum(not o.ok for o in probes)} of {len(probes)} probes); failed_ratio {failed / len(outcomes):.4f}"
    ]
    counts = Counter(o.op.kind for o in outcomes if o.op.timed)
    for kind, s in sorted(_median_by_kind(outcomes).items()):
        name = kind.replace("run.", "run_s.") if kind.startswith("run.") else f"{kind}_s"
        lines.append(f"# {name}: {s:.6f} s median wall time over {counts[kind]}")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "clockwork" / "cli.py").is_file():
        print(f"perfbench: clockwork sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    ctx = setup(args.workload, args.seed)
    metrics, outcomes = run(ctx, args.seconds, bool(args.trace))
    for line in summary(ctx, outcomes):
        print(line)
    checked = [o for o in outcomes if o.op.timed]
    failed = sum(not o.ok for o in checked)
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
