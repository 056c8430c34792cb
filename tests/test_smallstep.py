"""Small-step oracle unit tests."""

import sys
import time
from functools import cache, reduce

import pytest

import reference_smallstep
from reference_smallstep import Config, step

from clockwork import smallstep
from clockwork.imp import Bc, If, Less, N, Plus, Seq, Set, Skip, Store, V, While, pretty
from clockwork.parser import parse_com
from clockwork.smallstep import (
    StepLimit,
    Terminated,
    TraceRenderer,
    iter_trace,
    run_oracle,
    run_oracle_stats,
    trace_stores,
)
from clockwork.testkit import GenConfig, _gen_case, case_stream, gen_com, gen_store

S0 = Store()
WORKED = parse_com("x := 0 ; WHILE x < 3 DO x := x + 1 OD")

# Pinned from the first oracle run of the worked loop (hand-checked: each
# of the three iterations takes assignment + two Seq reductions + unfold
# + branch, plus the initial assignment and the final false unfold).
WORKED_STEPS = 16
WORKED_WHILE_STEPS = 4


def test_skip_is_terminal():
    assert Config(Skip(), S0).is_terminal()
    assert step(Config(Skip(), S0)) is None


def test_step_assignment():
    nxt = step(Config(Set("x", N(1)), S0))
    assert nxt == Config(Skip(), Store({"x": 1}))


def test_step_seq_skip():
    assert step(Config(Seq(Skip(), Skip()), S1 := Store({"y": 2}))) == Config(Skip(), S1)


def test_step_seq_left():
    cfg = Config(Seq(Set("x", N(1)), Skip()), S0)
    assert step(cfg) == Config(Seq(Skip(), Skip()), Store({"x": 1}))


def test_step_if():
    ct, cf = Set("x", N(1)), Set("x", N(2))
    assert step(Config(If(Bc(True), ct, cf), S0)) == Config(ct, S0)
    assert step(Config(If(Bc(False), ct, cf), S0)) == Config(cf, S0)


def test_step_while_unfolds_to_if():
    w = While(Bc(False), Skip())
    assert step(Config(w, S0)) == Config(If(Bc(False), Seq(Skip(), w), Skip()), S0)


def test_step_deep_left_spine():
    c = Set("x", N(1))
    for _ in range(5000):
        c = Seq(c, Skip())
    nxt = step(Config(c, S0))  # must not overflow the interpreter stack
    assert nxt is not None
    assert nxt.store == Store({"x": 1})


def test_run_oracle_examples():
    assert run_oracle(Skip(), S0, 10) == Terminated(S0, 0)
    assert run_oracle(Set("x", N(1)), S0, 10) == Terminated(Store({"x": 1}), 1)


def test_run_oracle_worked_loop_pinned():
    outcome, while_steps = run_oracle_stats(WORKED, S0, 1000)
    assert outcome == Terminated(Store({"x": 3}), WORKED_STEPS)
    assert while_steps == WORKED_WHILE_STEPS


def test_run_oracle_step_limit():
    diverging = parse_com("WHILE true DO SKIP OD")
    assert run_oracle(diverging, S0, 50) == StepLimit(50)


def test_run_oracle_exact_cap_boundary():
    # terminating exactly at the cap still reports Terminated
    assert run_oracle(Set("x", N(1)), S0, 1) == Terminated(Store({"x": 1}), 1)
    assert run_oracle(Seq(Set("x", N(1)), Set("y", N(2))), S0, 2) == StepLimit(2)


def test_iter_trace_contents():
    configs = list(iter_trace(Set("x", N(1)), S0, 10))
    assert configs == [(Set("x", N(1)), (), S0), (Skip(), (), Store({"x": 1}))]

    only = list(iter_trace(Skip(), S0, 10))
    assert only == [(Skip(), (), S0)]

    # The context holds the right operands of ';', innermost last.
    a, b, c = Set("x", N(1)), Set("y", N(2)), Set("z", N(3))
    configs = list(iter_trace(Seq(Seq(a, b), c), S0, 1))
    assert configs == [(a, (c, b), S0), (Skip(), (c, b), Store({"x": 1}))]


def test_iter_trace_respects_cap():
    diverging = While(Bc(True), Skip())
    configs = list(iter_trace(diverging, S0, 7))
    assert len(configs) == 8
    assert configs[1] == (If(Bc(True), Seq(Skip(), diverging), Skip()), (), S0)  # the unfold's IF
    assert configs[-1][:2] != (Skip(), ())  # not terminal


def test_trace_matches_run_oracle():
    configs = list(iter_trace(WORKED, S0, 1000))
    assert len(configs) - 1 == WORKED_STEPS
    assert configs[-1] == (Skip(), (), Store({"x": 3}))


def test_config_render():
    assert Config(Skip(), S0).render() == "⟨SKIP, {}⟩"
    assert (
        Config(Set("x", N(1)), Store({"x": 3})).render() == "⟨x := 1, {x: 3}⟩"
    )


def test_trace_renderer_memo_holds_only_the_spine_siblings():
    # A balanced Seq tree of 4096 generated leaves, as large as the
    # benchmark's 200 KB program.
    level = [gen_com(GenConfig(seed=i), 12) for i in range(4096)]
    while len(level) > 1:
        pairs = [Seq(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        level = pairs + level[len(level) - len(level) % 2 :]
    renderer = TraceRenderer()
    configs = zip(iter_trace(level[0], S0, 50), reference_smallstep.iter_trace(level[0], S0, 50), strict=True)
    for (focus, context, store), cfg in configs:
        line = renderer.render(focus, context, store)
        assert line == cfg.render()
        assert len(renderer._texts) == len(context)
        assert all(entry is sibling for (entry, _), sibling in zip(renderer._texts, context))
        assert sum(len(text) for _, text in renderer._texts) < len(line)


def test_determinism():
    cfg = Config(WORKED, S0)
    assert step(cfg) == step(cfg)


def test_cap_validation():
    with pytest.raises(ValueError):
        run_oracle(Skip(), S0, 0)
    with pytest.raises(ValueError):
        list(iter_trace(Skip(), S0, 0))


@pytest.mark.parametrize("cap", [0, -1, True, False, 2.5, 1.0, "3", None])
@pytest.mark.parametrize(
    "run",
    [run_oracle, run_oracle_stats, lambda c, s, cap: list(iter_trace(c, s, cap)), trace_stores],
    ids=["run_oracle", "run_oracle_stats", "iter_trace", "trace_stores"],
)
def test_cap_must_be_a_positive_int(run, cap):
    with pytest.raises(ValueError, match="step cap must be a positive integer"):
        run(While(Bc(True), Skip()), S0, cap)


def _redex(c):
    """The command the next `step` contracts: the end of the left Seq spine."""
    while type(c) is Seq and type(c.first) is not Skip:
        c = c.first
    return c


def _reference(c, s, cap):
    """`run_oracle_stats` restated by iterating `step`."""
    cfg, while_steps = Config(c, s), 0
    for n in range(cap + 1):
        if cfg.is_terminal():
            return Terminated(cfg.store, n), while_steps
        if n == cap:
            break
        while_steps += type(_redex(cfg.com)) is While
        cfg = step(cfg)
    return StepLimit(cap), while_steps


def _chains(leaves):
    """The same statements nested to the left and to the right."""
    return reduce(Seq, leaves), reduce(lambda rest, c: Seq(c, rest), reversed(leaves))


REF_CAP = 500


@cache
def _differential_cases():
    """3,000 generated programs and nested chains of generated programs, each
    at the caps 1, its exact step count and one below (REF_CAP and one below
    for a program that runs longer)."""
    cases = [(gen_com(GenConfig(seed=i), 12), gen_store(GenConfig(seed=i))) for i in range(3000)]
    for k in (2, 7, 40):
        leaves = [gen_com(GenConfig(seed=10_000 * k + i), 6) for i in range(k)]
        cases += [(chain, gen_store(GenConfig(seed=k))) for chain in _chains(leaves)]
    out = []
    for c, s in cases:
        outcome, _ = _reference(c, s, REF_CAP)
        steps = outcome.steps if type(outcome) is Terminated else REF_CAP
        out += [(c, s, cap) for cap in sorted({1, steps, steps - 1}) if cap >= 1]
    return out


def test_run_oracle_stats_equals_iterating_step():
    seen = {Terminated: 0, StepLimit: 0}
    for c, s, cap in _differential_cases():
        got = run_oracle_stats(c, s, cap)
        assert got == _reference(c, s, cap), (pretty(c), s, cap)
        seen[type(got[0])] += 1
    assert min(seen.values()) > 1000


def test_run_oracle_stats_makes_the_calls_of_iterating_step(monkeypatch):
    # The machine (behind run_oracle_stats and trace_stores) and the reference
    # evaluate through their module's aval/bval, as looked up at each call, so
    # a patch of either sees every call.  The machine writes its own bindings
    # where the reference calls Store.set: each Set step's write, the bindings
    # the machine yields copied at the yield or the store Store.set returns,
    # is recorded in the same sequence as the calls.
    cases = _differential_cases()[::10]
    calls = []
    aval, bval, store_set, machine = smallstep.aval, smallstep.bval, Store.set, smallstep._machine

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    def recorded_set(store, name, value):
        new = store_set(store, name, value)
        calls.append(("write", new._m))
        return new

    def recorded_machine(*args):
        for m in machine(*args):
            calls.append(("write", m.copy()))
            yield m

    for module in (smallstep, reference_smallstep):
        monkeypatch.setattr(module, "aval", counted("aval", aval))
        monkeypatch.setattr(module, "bval", counted("bval", bval))
    monkeypatch.setattr(Store, "set", recorded_set)
    monkeypatch.setattr(smallstep, "_machine", recorded_machine)
    for run in (run_oracle_stats, trace_stores):
        total = writes = 0
        for c, s, cap in cases:
            run(c, s, cap)
            got = calls[:]
            calls.clear()
            _reference(c, s, cap)
            assert got == calls, (pretty(c), s, cap)
            total += len(calls)
            writes += sum(type(call) is tuple for call in calls)
            calls.clear()
        assert total > 10_000
        assert writes > 1000


def test_iter_trace_equals_the_reference_trace():
    # The same configurations, each rebuilt into the command it stands for,
    # with the same stores.
    for c, s, cap in _differential_cases():
        got = [Config(reduce(Seq, reversed(context), focus), store) for focus, context, store in iter_trace(c, s, cap)]
        assert got == list(reference_smallstep.iter_trace(c, s, cap)), (pretty(c), s, cap)


CAP_BOUNDARY_PROGRAMS = [
    "x := 0 ; WHILE x < 2 DO x := x + 1 OD",
    "WHILE false DO SKIP OD",
    "WHILE x < 2 DO y := 0 ; WHILE y < 2 DO y := y + 1 OD ; x := x + 1 OD",
    "WHILE x < 2 DO x := x + 1 OD ; y := x",
    "(WHILE x < 2 DO x := x + 1 OD ; SKIP) ; y := x",
    "IF x < 1 THEN WHILE x < 2 DO x := x + 1 OD ELSE SKIP FI ; y := 1",
    "WHILE true DO SKIP OD",
]


@pytest.mark.parametrize("text", CAP_BOUNDARY_PROGRAMS)
def test_run_oracle_stats_equals_iterating_step_at_every_cap(text):
    # Every cap up to one past the last step, so a StepLimit falls between
    # each unfold and the step on its guard.
    c = parse_com(text)
    outcome, _ = _reference(c, S0, REF_CAP)
    steps = outcome.steps if type(outcome) is Terminated else 60  # WHILE true DO SKIP OD
    for cap in range(1, steps + 2):
        assert run_oracle_stats(c, S0, cap) == _reference(c, S0, cap), cap


def test_trace_stores_equals_the_stores_of_iter_trace():
    # The P5 campaign's programs and stores, at the campaign's cap and below.
    for k in range(2000):
        inp, _ = _gen_case("P5", case_stream(7, k))
        c, s = Seq(inp["first"], inp["second"]), inp["store"]
        for cap in (1, 2, 3, 50, 4096):
            want = {cfg.store for cfg in reference_smallstep.iter_trace(c, s, cap)}
            assert trace_stores(c, s, cap) == want, (pretty(c), s, cap)


@pytest.mark.parametrize("text", CAP_BOUNDARY_PROGRAMS)
def test_trace_stores_equals_the_stores_of_iter_trace_at_every_cap(text):
    c = parse_com(text)
    outcome, _ = _reference(c, S0, REF_CAP)
    steps = outcome.steps if type(outcome) is Terminated else 60  # WHILE true DO SKIP OD
    for cap in range(1, steps + 2):
        assert trace_stores(c, S0, cap) == {cfg.store for cfg in reference_smallstep.iter_trace(c, S0, cap)}, cap


ZERO_THEN_REASSIGN = [
    ("x := 0 ; x := 5", {"x": 3}),
    ("x := 0 ; y := x ; x := y + 2", {"x": 3, "y": 1}),
    ("WHILE 0 < x DO x := x + -1 ; y := y + 1 OD ; x := y ; y := 0", {"x": 3}),
    ("y := 0 ; WHILE x < 2 DO x := x + 1 ; y := 0 ; y := x OD ; x := 0", {"x": -1, "y": 7, "z": 2}),
]


@pytest.mark.parametrize("text, bindings", ZERO_THEN_REASSIGN)
def test_the_oracle_never_writes_its_callers_store_and_keeps_the_normal_form(text, bindings):
    # Each program assigns 0 to a bound name and then assigns to it again.
    c = parse_com(text)
    outcome, _ = _reference(c, Store(bindings), REF_CAP)
    for cap in range(1, outcome.steps + 2):
        s = Store(bindings)
        before = s._m.copy()
        want_outcome, _ = _reference(c, s, cap)
        want_stores = {cfg.store for cfg in reference_smallstep.iter_trace(c, s, cap)}
        runs = [run_oracle(c, s, cap), run_oracle_stats(c, s, cap)[0], trace_stores(c, s, cap)]
        assert runs[:2] == [want_outcome, want_outcome], cap
        stores = [*runs[2], *(r.store for r in runs[:2] if type(r) is Terminated)]
        assert all(0 not in store._m.values() for store in stores), cap
        assert runs[2] == want_stores, cap
        # A second run on the same inputs leaves the first run's stores as
        # they were (rehashed, so a store whose bindings moved is caught).
        assert [run_oracle(c, s, cap), trace_stores(c, s, cap)] == [want_outcome, want_stores], cap
        assert runs[:2] == [want_outcome, want_outcome] and set(runs[2]) == want_stores, cap
        assert s._m == before, cap


def _node_inits(run) -> int:
    """The calls of `If.__init__` and `Seq.__init__` made while `run()` runs."""
    inits = {If.__init__.__code__, Seq.__init__.__code__}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in inits:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def test_run_oracle_stats_unfolds_while_without_building_nodes():
    c = parse_com("x := 0 ; WHILE x < 1000 DO x := x + 1 OD")
    results = []
    assert _node_inits(lambda: results.append(run_oracle_stats(c, S0, 10_000))) == 0
    assert results == [(Terminated(Store({"x": 1000}), 4004), 1001)]
    assert _node_inits(lambda: trace_stores(c, S0, 10_000)) == 0
    # The counter sees the nodes the reference builds on the same program.
    assert _node_inits(lambda: sum(1 for _ in reference_smallstep.iter_trace(c, S0, 10_000))) > 0


def test_left_nested_program_runs_in_linear_time():
    # Refocusing never walks the context from the root, so a 20,000-deep left
    # spine costs what its right-nested twin costs (quadratic before).
    def leaf(i):
        if i % 1000:
            return Set("x", Plus(V("x"), N(i)))
        return While(Less(V("y"), N(i // 1000)), Set("y", Plus(V("y"), N(1))))

    left, right = _chains([leaf(i) for i in range(20_000)])
    results, best = {}, {}
    for run in (run_oracle_stats, trace_stores):
        for name, c in (("left", left), ("right", right)) * 3:
            t0 = time.perf_counter()
            results[run, name] = run(c, S0, 1_000_000)
            best[run, name] = min(best.get((run, name), float("inf")), time.perf_counter() - t0)
        assert results[run, "left"] == results[run, "right"]
        assert best[run, "left"] < 2 * best[run, "right"]
    outcome, while_steps = results[run_oracle_stats, "left"]
    assert outcome.store == Store({"x": sum(range(20_000)) - sum(range(0, 20_000, 1000)), "y": 19})
    assert while_steps == 20 + 19  # one false unfold per loop, one true unfold per loop but the first
    assert outcome.store in results[trace_stores, "left"]


def test_oracle_agrees_with_clocked_semantics_on_worked_loop():
    # independent cross-check of the pinned step count: the threaded-clock
    # evaluator consumes one tick per While unfold, and the oracle's unfold
    # count must dominate it
    from clockwork.clocked_state import cval

    r = cval(WORKED, S0, WORKED_STEPS + 1)
    assert r is not None
    consumed = (WORKED_STEPS + 1) - r[1]
    assert consumed == 3 <= WORKED_WHILE_STEPS <= WORKED_STEPS
