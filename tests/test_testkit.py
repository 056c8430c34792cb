"""Generator, fuel-search, campaign, and shrinking tests."""

import hashlib
import inspect
import json
import re
import sys
from typing import Union, get_args

import pytest

import reference_splitmix64
from clockwork.clocked_env import ev
from clockwork.imp import (
    Aexp,
    And,
    Bc,
    Bexp,
    Com,
    If,
    Less,
    N,
    Not,
    Plus,
    Seq,
    Set,
    Skip,
    Store,
    V,
    While,
    pretty,
    size,
)
from clockwork.parser import parse_com
from clockwork.smallstep import run_oracle
from clockwork.testkit import (
    PROPERTY_IDS,
    Campaigns,
    GenConfig,
    SplitMix64,
    _gen_case,
    _render_inputs,
    _shrink,
    _value_shrinks,
    case_stream,
    enumerate_coms,
    fuel_search,
    gen_com,
    gen_store,
    mix64,
    replay_case,
    run_property,
)

S0 = Store()


def test_splitmix64_reference_sequence():
    # first outputs for seed 0 of the standard splitmix64 (portable across
    # implementations; this is the documented campaign PRNG)
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_draw_helpers():
    rng = SplitMix64(1)
    for _ in range(200):
        assert 0 <= rng.below(7) < 7
        assert -4 <= rng.randint(-4, 4) <= 4
    assert SplitMix64(5).chance(1.0)
    assert not SplitMix64(5).chance(0.0)
    with pytest.raises(ValueError):
        rng.below(0)


# (helper, arguments) cycled through by the block-stream test; each helper
# must read exactly one output, or the two streams fall out of step.
_DRAW_SCRIPT = [
    ("next_u64", ()),
    ("below", (7,)),
    ("randint", (-4, 4)),
    ("chance", (0.5,)),
    ("choice", (("x", "y", "z"),)),
    ("below", (1,)),
    ("randint", (0, 64)),
    ("below", (1 << 70,)),
    ("chance", (0.25,)),
    ("choice", ([10, 20],)),
    ("next_u64", ()),
]


@pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1, 2**70 + 5])
def test_block_stream_equals_the_scalar_reference(seed):
    # 300 draws cross 18 refills of the 16-output blocks
    rng, ref = SplitMix64(seed), reference_splitmix64.SplitMix64(seed)
    assert rng.state == ref.state and rng.drawn == 0
    for i in range(300):
        name, args = _DRAW_SCRIPT[i % len(_DRAW_SCRIPT)]
        assert getattr(rng, name)(*args) == getattr(ref, name)(*args), (i, name, args)
        assert rng.drawn == i + 1 and rng.position() == ref.state, (i, name, args)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**70 + 5])
@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 300])
def test_a_skipped_stream_equals_the_reference_after_as_many_draws(seed, n):
    # output k is mix64(state + k * gamma), so n outputs on is the stream
    # started n increments further; after 5 draws it skips from inside a block
    for before in (0, 5):
        rng, ref = SplitMix64(seed), reference_splitmix64.SplitMix64(seed)
        for _ in range(before):
            assert rng.next_u64() == ref.next_u64()
        rng.skip(n)
        for _ in range(n):
            ref.next_u64()
        assert rng.drawn == before + n and rng.position() == ref.state
        assert [rng.next_u64() for _ in range(40)] == [ref.next_u64() for _ in range(40)]


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda rng: rng.below(0), "below() needs a positive bound"),
        (lambda rng: rng.randint(3, 1), "randint(3, 1) needs lo <= hi"),
        (lambda rng: rng.choice([]), "choice([]) needs a non-empty sequence"),
        (lambda rng: rng.choice(()), "choice(()) needs a non-empty sequence"),
    ],
    ids=["below", "randint", "choice-list", "choice-tuple"],
)
def test_draw_helpers_name_themselves_in_errors(draw, message):
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        draw(rng)
    # A refused draw takes no output and counts none.
    assert rng.drawn == 0
    assert rng.next_u64() == SplitMix64(1).next_u64()


def test_case_streams_are_independent_and_reproducible():
    a1 = case_stream(42, 0).next_u64()
    a2 = case_stream(42, 0).next_u64()
    b = case_stream(42, 1).next_u64()
    c = case_stream(43, 0).next_u64()
    assert a1 == a2
    assert len({a1, b, c}) == 3
    assert mix64(42) == case_stream(42, 0).state


def test_gen_com_budget_one_forces_leaf():
    for seed in range(100):
        c = gen_com(GenConfig(seed=seed), 1)
        assert isinstance(c, (Skip, Set))


def test_gen_com_deterministic():
    cfg = GenConfig(seed=2024)
    assert gen_com(cfg, 12) == gen_com(cfg, 12)
    assert gen_com(cfg, 5) == gen_com(cfg, 5)


def test_gen_store_deterministic_and_in_range():
    from clockwork.testkit import _VARS

    cfg = GenConfig(seed=9)
    s = gen_store(cfg)
    assert s == gen_store(cfg)
    assert all(-4 <= s.get(x) <= 4 for x in _VARS)


def test_gen_com_respects_budget():
    for seed in range(300):
        for budget in (1, 2, 3, 7, 12):
            assert size(gen_com(GenConfig(seed=seed), budget)) <= budget


def test_generator_pinned_at_every_budget():
    # sha256 over gen_com at budgets 1..14 (outer) and seeds 0..199, then
    # gen_store at seeds 0..199: pins the node weights at each budget, the
    # literal range and the loop bias, below and above the campaign's 12
    h = hashlib.sha256()
    for budget in range(1, 15):
        for seed in range(200):
            h.update((pretty(gen_com(GenConfig(seed=seed), budget)) + "\n").encode())
    for seed in range(200):
        h.update((repr(gen_store(GenConfig(seed=seed)).to_dict()) + "\n").encode())
    assert h.hexdigest() == "0dca182865da1bd196169eae5fc94a62347a6d0c8281c9d7027169728e773e6d"


def _contains(c, cls):
    todo = [c]
    while todo:
        n = todo.pop()
        if isinstance(n, cls):
            return True
        t = type(n)
        if t is Seq:
            todo += [n.first, n.second]
        elif t is If:
            todo += [n.then_branch, n.else_branch]
        elif t is While:
            todo.append(n.body)
    return False


def test_generated_distribution_pinned():
    # 1000 draws at budget 12, loop bias 0.5, seed 42; counts pinned from
    # the first measurement run
    progs = [_gen_case("RT", case_stream(42, k))[0]["program"] for k in range(1000)]
    n_while = sum(_contains(c, While) for c in progs)
    n_if = sum(_contains(c, If) for c in progs)
    assert n_while == 538
    assert n_if == 293
    assert n_while >= 1 and n_if >= 1


def _leaf_inits(run) -> int:
    """The calls of `N.__init__` and `V.__init__` made while `run()` runs.

    Code objects are matched by identity: Bc's generated `__init__`
    compares equal to N's.
    """
    inits = {id(N.__init__.__code__), id(V.__init__.__code__)}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and id(frame.f_code) in inits:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def test_generated_leaves_are_shared():
    # Every generated N and V leaf comes from the shared tables.
    def draw_all():
        for pid in PROPERTY_IDS:
            for k in range(200):
                _gen_case(pid, case_stream(42, k))

    assert _leaf_inits(draw_all) == 0
    # The counter sees the leaves that the parser builds.
    assert _leaf_inits(lambda: parse_com("x := y + 1")) == 2


# sha256 of the JSON list of rendered inputs of cases 0..99 at seed 42; pins
# each property's key order, draw order and ranges.  P1-P3 and P7 draw the
# same triple, P9 and P10 the same (program, store) pair.
_DRAW_DIGESTS = {
    "P1": "58a96afe6819a4e5785b19688ea15ec389bb6fec5696204de3b7d7f706c1e533",
    "P2": "58a96afe6819a4e5785b19688ea15ec389bb6fec5696204de3b7d7f706c1e533",
    "P3": "58a96afe6819a4e5785b19688ea15ec389bb6fec5696204de3b7d7f706c1e533",
    "P4": "6f572a3fe14217e193b31ba6c72cde54b4d51cecd21627522cb21908298d913c",
    "P5": "f47ac20882f050106ce867302ec808e81e2deef00457f7a55a02451f29c861c5",
    "P6": "9c5d035055a69483cb1502a2f6c33db0e752d634c951b53e5838b2fe7ef33d1d",
    "P7": "58a96afe6819a4e5785b19688ea15ec389bb6fec5696204de3b7d7f706c1e533",
    "P8": "2542781088bda083f140870690cae2fbfd21057a2a337247643af50311c32026",
    "P9": "0a59449da0616916d7700016853f3947dc525850c23fb4926ef11f39a4651c40",
    "P10": "0a59449da0616916d7700016853f3947dc525850c23fb4926ef11f39a4651c40",
    "RT": "1896637e26314ce338a37c2173e2036321696b8ed9db30631f79ac078cfa40cd",
}


@pytest.mark.parametrize("pid", PROPERTY_IDS)
def test_case_draws_pinned(pid):
    cases = [_render_inputs(_gen_case(pid, case_stream(42, k))[0]) for k in range(100)]
    assert hashlib.sha256(json.dumps(cases).encode()).hexdigest() == _DRAW_DIGESTS[pid]


# --- fuel_search ---


def test_fuel_search_first_try():
    assert fuel_search("ev_min", Skip(), S0, 8) == (1, S0)


def test_fuel_search_diverging_loop():
    diverging = parse_com("WHILE true DO SKIP OD")
    assert fuel_search("cval", diverging, S0, 1024) is None


def test_fuel_search_worked_loop():
    prog = parse_com("x := 0 ; WHILE x < 3 DO x := x + 1 OD")
    assert fuel_search("cval", prog, S0, 64) == (4, (Store({"x": 3}), 1))


def test_fuel_search_caps_at_max():
    prog = parse_com("x := 0 ; WHILE x < 3 DO x := x + 1 OD")
    # doubling would jump 1, 2, 3: the cap itself is the last try
    assert fuel_search("cval", prog, S0, 3) == (3, (Store({"x": 3}), 0))


def test_fuel_search_validation():
    with pytest.raises(ValueError):
        fuel_search("nope", Skip(), S0, 8)
    with pytest.raises(ValueError):
        fuel_search("ev", Skip(), S0, 0)


# --- bounded-exhaustive enumeration ---


def test_enumerate_coms_counts_distinct_and_sizes():
    coms = enumerate_coms(5)
    assert len(set(coms)) == len(coms) == 83_664
    sizes = [size(c) for c in coms]
    assert sizes == sorted(sizes)  # by size, so a smaller bound is a prefix
    for k, count in ((3, 594), (4, 6_030)):
        assert enumerate_coms(k) == coms[:count]
        assert max(sizes[:count]) == k
    assert max(sizes) == 5


# --- campaigns ---


def test_run_property_passes():
    cfg = GenConfig(seed=42)
    for pid in ("P2", "P4"):
        report = run_property(pid, cfg, 400)
        assert report.passed
        assert report.cases_run == 400
        assert report.failures == []


def test_run_property_vacuous():
    report = run_property("P1", GenConfig(seed=1), 0)
    assert report.cases_run == 0
    assert report.passed


def test_run_property_unknown_id():
    with pytest.raises(ValueError, match="unknown property id: 'P99'"):
        run_property("P99", GenConfig(seed=1), 10)
    with pytest.raises(ValueError, match="unknown property id: 'P99'"):
        replay_case("P99", GenConfig(seed=1), 0)


def test_run_property_runs_only_the_next_campaign_planned():
    cfg = GenConfig(seed=1)
    with Campaigns(("P1", "P2"), cfg, 10) as campaigns:
        for wrong in (("P2", cfg, 10), ("P1", GenConfig(seed=2), 10), ("P1", cfg, 11)):
            with pytest.raises(ValueError, match="is not the next one planned"):
                run_property(*wrong, campaigns)
        assert run_property("P1", cfg, 10, campaigns).passed
        assert run_property("P2", cfg, 10, campaigns).passed
        with pytest.raises(ValueError, match="is not the next one planned"):
            run_property("P1", cfg, 10, campaigns)


# Every integer argument is read by one rule: a non-bool int at or above
# its minimum (None: any sign).  name -> (call taking the value, minimum)
_INT_ARGUMENTS = {
    "cases": (lambda v: run_property("P1", GenConfig(seed=1), v), 0),
    "case_index": (lambda v: replay_case("P1", GenConfig(seed=1), v), 0),
    "budget": (lambda v: gen_com(GenConfig(seed=1), v), 1),
    "max_fuel": (lambda v: fuel_search("ev", Skip(), S0, v), 1),
    "max_size": (enumerate_coms, 0),
    "seed": (lambda v: GenConfig(seed=v), None),
    "fuel": (lambda v: ev(Skip(), S0, v), 0),
    "step cap": (lambda v: run_oracle(Skip(), S0, v), 1),
}


@pytest.mark.parametrize("name", _INT_ARGUMENTS)
def test_integer_arguments_share_one_rule(name):
    call, minimum = _INT_ARGUMENTS[name]
    bad = [True, 2.5, "3", None] + ([] if minimum is None else [minimum - 1])
    for v in bad:
        with pytest.raises(ValueError, match=rf"^{name} must be .*integer, got {re.escape(repr(v))}$"):
            call(v)
    call(-7 if minimum is None else minimum)


def test_report_json_shape():
    report = run_property("P2", GenConfig(seed=7), 50)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["property"] == "P2"
    assert doc["cases"] == 50
    assert doc["failures"] == []
    assert isinstance(doc["elapsed_ms"], int)
    assert doc["skipped"] == 0


def test_p5_counts_skips():
    report = run_property("P5", GenConfig(seed=42), 300)
    assert report.passed
    assert report.skipped > 0  # some premises fail and are counted
    assert report.cases_run - report.skipped >= 200
    assert "premise_sample" in report.details


def test_replay_case_matches_campaign():
    cfg = GenConfig(seed=11)
    inputs, verdict = replay_case("P2", cfg, 3)
    inputs2, verdict2 = replay_case("P2", cfg, 3)
    assert inputs == inputs2
    assert verdict == verdict2 == "pass"
    assert "program" in inputs and "fuel" in inputs


# --- shrinking ---


def _fails_if_contains_while(inp):
    # synthetic "property": no While anywhere; drives the shrinker
    if _contains(inp["program"], While):
        return ("no While in program", "found one")
    return None


def test_shrinker_finds_local_minimum():
    big = parse_com(
        "y := 4 ; IF x < 2 THEN WHILE x < 4 DO x := x + 2 OD ELSE SKIP FI ; z := 1"
    )
    inputs = {"program": big, "fuel": 37}
    assert _fails_if_contains_while(inputs) is not None
    shrunk = _shrink(inputs, _fails_if_contains_while)
    assert _fails_if_contains_while(shrunk) is not None
    assert shrunk["fuel"] == 0  # fuel is irrelevant to the failure
    # local minimum: the loop survives, its body cut to SKIP, no Set left
    assert _contains(shrunk["program"], While)
    assert not _contains(shrunk["program"], Set)
    w = shrunk["program"]
    while not isinstance(w, While):
        w = {Seq: lambda n: n.first if _contains(n.first, While) else n.second,
             If: lambda n: n.then_branch if _contains(n.then_branch, While) else n.else_branch,
             }[type(w)](w)
    assert w.body == Skip()


def test_shrinker_shrinks_literals_toward_zero():
    def fails_on_any_set(inp):
        return ("no Set", "found") if _contains(inp["program"], Set) else None

    inputs = {"program": Set("x", Plus(N(40), V("y")))}
    shrunk = _shrink(inputs, fails_on_any_set)
    assert shrunk["program"] == Set("x", Plus(N(0), V("y")))


def _node_candidates(node):
    # A node's own shrinks, read through the command shrinker: an expression
    # sits in a one-node command whose only other candidate is the SKIP first.
    if isinstance(node, get_args(Com)):
        return list(_value_shrinks(node))
    if isinstance(node, get_args(Aexp)):
        wrapped, field = Set("x", node), "expr"
    else:
        wrapped, field = While(node, Skip()), "guard"
    cands = list(_value_shrinks(wrapped))
    assert cands[0] == Skip()
    return [getattr(c, field) for c in cands[1:]]


_W_GUARD = Less(V("x"), N(2))
_W_BODY = Set("x", Plus(V("x"), N(1)))

# one small instance per node type and its exact candidate list, in order
_NODE_SHRINK_TABLE = [
    (N(-3), [N(0), N(-1)]),
    (V("x"), []),
    (Plus(N(4), V("x")), [Plus(N(0), V("x")), Plus(N(2), V("x"))]),
    (Bc(True), []),
    (Not(Less(N(2), V("y"))), [Not(Less(N(0), V("y"))), Not(Less(N(1), V("y")))]),
    (
        And(Bc(False), Less(V("x"), N(-3))),
        [And(Bc(False), Less(V("x"), N(0))), And(Bc(False), Less(V("x"), N(-1)))],
    ),
    (
        Less(N(3), N(-2)),
        [Less(N(0), N(-2)), Less(N(1), N(-2)), Less(N(3), N(0)), Less(N(3), N(-1))],
    ),
    (Skip(), []),
    (Set("x", N(6)), [Skip(), Set("x", N(0)), Set("x", N(3))]),
    (Seq(Set("x", N(1)), Skip()), [Skip(), Seq(Skip(), Skip()), Seq(Set("x", N(0)), Skip())]),
    (
        If(Bc(True), Skip(), Set("y", N(2))),
        [
            Skip(),
            If(Bc(True), Skip(), Skip()),
            If(Bc(True), Skip(), Set("y", N(0))),
            If(Bc(True), Skip(), Set("y", N(1))),
        ],
    ),
    (
        While(_W_GUARD, _W_BODY),
        [
            Skip(),
            While(Less(V("x"), N(0)), _W_BODY),
            While(Less(V("x"), N(1)), _W_BODY),
            While(_W_GUARD, Skip()),
            While(_W_GUARD, Set("x", Plus(V("x"), N(0)))),
        ],
    ),
]


@pytest.mark.parametrize("node, expected", _NODE_SHRINK_TABLE, ids=lambda v: type(v).__name__)
def test_node_shrinks_pinned(node, expected):
    assert _node_candidates(node) == expected


def test_node_shrink_table_has_one_row_per_node_type():
    node_types = get_args(Union[Aexp, Bexp, Com])
    assert len(node_types) == 12
    assert sorted(type(node).__name__ for node, _ in _NODE_SHRINK_TABLE) == sorted(
        cls.__name__ for cls in node_types
    )


def _program_inputs(pid, seed, cases):
    for k in range(cases):
        inputs, _ = _gen_case(pid, case_stream(seed, k))
        yield from (v for v in inputs.values() if isinstance(v, get_args(Com)))


# sha256 of the JSON list, per program input of cases 0..99 at seed 42, of
# the pretty-printed candidates of _value_shrinks; computed before the
# shrinker was derived from the node classes, and unchanged by it.  Every
# property but P4 and P5 draws one program first from the same stream.
_SHRINK_DIGESTS = {
    "P1": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
    "P2": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
    "P3": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
    "P4": "78e508488dc12e7686a671adce5e801afbc02df15f9835eb0ce2608dbf6e03da",
    "P5": "78e508488dc12e7686a671adce5e801afbc02df15f9835eb0ce2608dbf6e03da",
    "P6": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
    "P7": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
    "P8": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
    "P9": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
    "P10": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
    "RT": "5200f72a7c76b22ed586a4ee36ae8d1303dcd5e7131e152a9f4ae7c6ef77800a",
}


@pytest.mark.parametrize("pid", PROPERTY_IDS)
def test_shrink_candidates_pinned(pid):
    cands = [[pretty(c) for c in _value_shrinks(p)] for p in _program_inputs(pid, 42, 100)]
    assert hashlib.sha256(json.dumps(cands).encode()).hexdigest() == _SHRINK_DIGESTS[pid]


def _final_x_above_1_sets_z(real):
    def mutant(c, s, t):
        r = real(c, s, t)
        return r.set("z", 7) if r is not None and r.get("x") > 1 else r

    return mutant


def _leftover_invented_above_4(real):
    def mutant(c, s, t):
        r = real(c, s, t)
        return (r[0], t + 1) if r is not None and t > 4 else r

    return mutant


# (property, seed, patched evaluator, mutant) -> failing cases and the sha256
# of the JSON list of (case, rendered shrunk inputs) of 300 cases; computed
# before the shrinker was derived from the node classes, and unchanged by it.
_MUTANT_SHRINK_DIGESTS = [
    ("P2", 42, "cval", _leftover_invented_above_4, 197, "77d59ab12d77830ff65b1ad5643acff5b3285c2e233aac99acef39353f7fe5c8"),
    ("P6", 3, "ev", _final_x_above_1_sets_z, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("P7", 3, "ev", _final_x_above_1_sets_z, 65, "e760e2ab17164e42c632d5bb259e59874d82f83a9f81f12b0e639cd6863b1ea6"),
    ("P8", 3, "ev", _final_x_above_1_sets_z, 77, "f0f63202350edb0e8c8869c8ff07b1f646244b7d5a27325c5e09b1196493f165"),
]


@pytest.mark.parametrize(
    "pid, seed, name, make_mutant, n_failing, digest",
    _MUTANT_SHRINK_DIGESTS,
    ids=[row[0] for row in _MUTANT_SHRINK_DIGESTS],
)
def test_mutant_shrunk_inputs_pinned(monkeypatch, pid, seed, name, make_mutant, n_failing, digest):
    import clockwork.testkit as tk

    mutant = make_mutant(getattr(tk, name))
    monkeypatch.setattr(tk, name, mutant)
    monkeypatch.setitem(tk.SEMANTICS, name, mutant)
    report = run_property(pid, GenConfig(seed=seed), 300)
    shrunk = [(f.case_index, f.shrunk) for f in report.failures]
    assert len(shrunk) == n_failing
    assert hashlib.sha256(json.dumps(shrunk).encode()).hexdigest() == digest


_NODE_TYPES = get_args(Union[Aexp, Bexp, Com])


def _measure(node):
    # (node count over all twelve node types, sum of |literal|)
    count = lits = 0
    todo = [node]
    while todo:
        n = todo.pop()
        count += 1
        if type(n) is N:
            lits += abs(n.value)
        fields = [getattr(n, f) for f in n.__match_args__]
        todo += [f for f in fields if isinstance(f, _NODE_TYPES)]
    return (count, lits)


def test_every_shrink_candidate_is_strictly_smaller():
    # _shrink's greedy descent terminates because each candidate lowers
    # this well-founded lexicographic measure
    programs = {p for pid in PROPERTY_IDS for p in _program_inputs(pid, 42, 300)}
    checked = 0
    for p in programs:
        m = _measure(p)
        for cand in _value_shrinks(p):
            assert _measure(cand) < m, (pretty(p), pretty(cand))
            checked += 1
    assert (len(programs), checked) == (422, 4_013)  # 3,900 inputs, 28,919 candidates


def test_store_shrinks_are_distinct():
    # a value of 1 or -1 shrinks to 0 once, not twice
    assert list(_value_shrinks(Store({"x": 1, "y": -1, "z": 4}))) == [
        Store({"y": -1, "z": 4}),
        Store({"x": 1, "z": 4}),
        Store({"x": 1, "y": -1}),
        Store({"x": 1, "y": -1, "z": 2}),
    ]


def test_a_shared_memo_gives_each_property_the_inputs_it_draws_alone():
    # P8 and P6 draw their extras after the triple, P4 and P5 the rest of
    # their case after the first program, from the skipped stream; each
    # property in turn comes first and fills the memo
    for first in PROPERTY_IDS:
        memo = {}
        for pid in (first, *PROPERTY_IDS, first):
            for k in range(100):
                shared, _ = _gen_case(pid, case_stream(42, k), memo)
                assert shared == _gen_case(pid, case_stream(42, k))[0], (first, pid, k)
                case = memo[case_stream(42, k).position()]
                assert shared["first" if pid in ("P4", "P5") else "program"] is case.program
                if pid in ("P9", "P10"):
                    assert shared["store"] is case.store
        assert len(memo) == 100


def test_failure_records_are_replayable():
    # regenerating the same case yields identical inputs
    inputs, _ = _gen_case("P1", case_stream(42, 0))
    inputs2, _ = _gen_case("P1", case_stream(42, 0))
    assert inputs == inputs2


def test_failing_campaign_reports_and_shrinks(monkeypatch):
    # break cval so P2's rewrite genuinely fails, then check the report
    import clockwork.testkit as tk

    real_cval = tk.cval

    def bad_cval(c, s, t):
        r = real_cval(c, s, t)
        if r is not None and t > 4:
            return (r[0], t + 1)  # invent extra leftover fuel
        return r

    monkeypatch.setattr(tk, "cval", bad_cval)
    report = run_property("P2", GenConfig(seed=42), 60)
    assert not report.passed
    f = report.failures[0]
    assert f.seed == 42
    assert isinstance(f.inputs["program"], str)  # pretty-printed
    assert isinstance(f.inputs["store"], dict)
    assert "fix_clock" in f.expected
    assert f.shrunk is not None
    assert f.shrunk["fuel"] <= f.inputs["fuel"]
    json.dumps(report.to_json_dict())  # serializable end to end
    # and the failure replays by (property, seed, case index)
    _, verdict = replay_case("P2", GenConfig(seed=42), f.case_index)
    assert verdict.startswith("fail:")


# --- import surface ---


def test_import_surface_the_benchmark_relies_on():
    # perfbench/ reads and re-points these names on the clockwork modules
    import clockwork.cli as cli
    import clockwork.clocked_env as clocked_env
    import clockwork.clocked_state as clocked_state
    import clockwork.imp as imp
    import clockwork.parser as parser
    import clockwork.smallstep as ss
    import clockwork.testkit as tk

    patched = {
        tk: (
            "ev", "ev_min", "cval", "cval_guard", "cval_tick", "SEMANTICS", "run_oracle",
            "run_oracle_stats", "parse_com", "pretty", "fuel_search", "iter_trace",
            "run_property", "PROPERTY_IDS", "replay_case", "ORACLE_CAP", "GenConfig", "gen_com",
        ),
        cli: ("main", "run_oracle", "parse_com", "pretty", "fuel_search", "iter_trace", "run_property"),
        clocked_env: ("ev", "ev_min", "aval", "bval"),
        clocked_state: ("cval", "cval_guard", "cval_tick", "aval", "bval"),
        ss: ("aval", "bval", "pretty", "run_oracle", "run_oracle_stats", "StepLimit"),
        imp: ("Seq", "Store", "pretty"),
        imp.Store: ("set",),
        parser: ("parse_com",),
    }
    for module, names in patched.items():
        for name in names:
            assert hasattr(module, name), (module.__name__, name)
    assert set(tk.SEMANTICS) == {"ev", "ev_min", "cval", "cval_guard", "cval_tick"}
    # the tracer tags each campaign with the id and case count `check` passes first and third
    assert list(inspect.signature(cli.run_property).parameters)[:3] == ["property_id", "cfg", "cases"]
    # the counted names must be the ones the evaluators and the oracle call
    for module in (clocked_env, clocked_state, ss):
        assert module.aval is imp.aval and module.bval is imp.bval, module.__name__
