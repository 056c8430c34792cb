"""Seeded program generation and the differential property harness.

Campaigns are reproducible across machines and runs: all randomness
comes from SplitMix64 (state advances by 0x9E3779B97F4A7C15; output is
the finalizer with multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB),
and case k of a campaign draws from an independent stream seeded with
``mix64(seed + k * 0x9E3779B97F4A7C15)``.  Bounded draws take the next
64-bit output modulo the range size.  Any failure can therefore be
replayed from (property id, seed, case index) alone.  The outputs are
computed in blocks (see ``SplitMix64``), which changes what they cost,
not their values.

One ``clockwork check`` runs on W processes (see ``Campaigns``), W
being the number of CPUs the process may run on, at most the case
count.  Case k of every property in the check runs on worker k mod W,
and worker 0 is the calling process.  Since every case draws from its
own stream, the reports do not depend on W.

P10's fuel sweep of a step-limited case, 257 fuels under five
semantics, runs on cpus // W processes: the calling process and helpers
it forks for that sweep alone, process j running fuels j, j + n, ...
A forked worker sweeps serially, and a terminating case forks nothing.

Every fork goes through ``_Forks``, whose rule says what a child may
send and what a short answer means.  A worker names the cases that
failed or raised, which the calling process checks and shrinks again;
a helper says whether all its runs timed out, and on anything else the
sweep runs again serially.  So every report and error is the one a
single process gives.

Each worker keeps one memo for the whole check, so it draws once the
(program, store, fuel) triple that P1, P2, P3, P6, P7 and P8 start each
of its cases with.  The memo is keyed by the stream position the triple
is drawn from, and a stream at the same position yields the same triple.
It holds the worker's first ``_MEMO_CASES`` triples and goes with the
``check``; later cases are drawn per property, as a lone campaign draws
them.  Only inputs are shared: every property runs its evaluators itself.

Generated programs share their leaves: every N and V node comes from
one module-level table, indexed by the same draws that would have built
it.  Commands and the other expression nodes are built per occurrence.

The eleven property ids:

    P1   a successful threaded-clock run never returns more clock than
         it was given (strictly less for cval_tick)
    P2   fix_clock is the identity on cval results
    P3   cval_guard agrees exactly with cval
    P4   padding both sides of a sequence with SKIP never changes ev_min
    P5   the same SKIP-padding is invisible to ev when the operands'
         results are clock-stable one tick down (premises sampled over
         trace-reachable stores plus 32 random ones)
    P6   more fuel never changes a successful ev / ev_min outcome
    P7   success under ev implies success under ev_min, same store
    P8   three facets per case: (a) extra input fuel flows through
         cval / cval_tick unchanged, (b) success under cval implies
         success under ev_min with the same store, (c) any two
         successful runs agree on the final store
    P9   every oracle-terminated program is reached by all five
         evaluators, within a documented fuel bound
    P10  oracle step-limited programs time out at every small fuel
    RT   parse(pretty(c)) == c
"""

from __future__ import annotations

import io
import os
import struct
import time
from itertools import product
from typing import BinaryIO, Callable, Iterator, Optional, Sequence, Union, get_args

from .clocked_env import EnvResult, ev, ev_min
from .clocked_state import StateResult, cval, cval_guard, cval_tick, fix_clock
from .imp import (
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
    _check_int,
    _Frozen,
    pretty,
    size,
)
from .parser import ParseError, parse_com
# iter_trace is not called here; perfbench's tracer reads and re-points testkit.iter_trace.
from .smallstep import StepLimit, Terminated, iter_trace, run_oracle, run_oracle_stats, trace_stores

SEMANTICS: dict[str, Callable[[Com, Store, int], object]] = {
    "ev": ev,
    "ev_min": ev_min,
    "cval": cval,
    "cval_guard": cval_guard,
    "cval_tick": cval_tick,
}

PROPERTY_IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "RT")

ORACLE_CAP = 10_000
TIMEOUT_FUEL_CEILING = 256
_P5_TRACE_CAP = 4096
_P5_EXTRA_STORES = 32
_MAX_SIZE = 12  # size bound of every generated campaign program
_VARS = ("x", "y", "z")
_LO, _HI = -4, 4  # range of every generated literal and store value
_LOOP_BIAS = 0.5  # share of While nodes drawn from the counting-loop template


def search_bound(steps: int, program_size: int) -> int:
    """Fuel ceiling for finding depth-clocked results of an oracle-terminated
    run: 4 * (steps + program size) + 8.

    Confirmed on every `enumerate_coms` program up to size 5 before being
    baked into P9; `p9_agreement` checks it, there and in the campaign.
    """
    return 4 * (steps + program_size) + 8


# --------------------------------------------------------------------------
# PRNG


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

# Block draws: _BLOCK consecutive outputs, one per 128-bit lane of one int.
# Each lane holds a 64-bit value.  Masking with _LANES before every multiply
# drops the bits a shift brings down from the lane above and keeps each
# 128-bit product inside its lane, so no lane carries into the next; the
# unpack reads the low 8 bytes of each lane.  16 measured best of 4 to 64
# per generated campaign round.
_BLOCK = 16
_ONES = sum(1 << (128 * i) for i in range(_BLOCK))
_STEPS = sum((i + 1) * _GAMMA << (128 * i) for i in range(_BLOCK))
_LANES = _MASK * _ONES
_UNPACK = struct.Struct("<" + "Q8x" * _BLOCK).unpack


def mix64(z: int) -> int:
    """SplitMix64 finalizer; also used to derive per-case stream seeds."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _outputs(state: int) -> Iterator[int]:
    """The SplitMix64 outputs after `state`, computed _BLOCK at a time."""
    while True:
        z = (state * _ONES + _STEPS) & _LANES
        z = ((z ^ (z >> 30)) & _LANES) * _M1 & _LANES
        z = ((z ^ (z >> 27)) & _LANES) * _M2 & _LANES
        state = (state + _BLOCK * _GAMMA) & _MASK
        yield from _UNPACK((z ^ (z >> 31)).to_bytes(16 * _BLOCK, "little"))


class SplitMix64:
    """Deterministic SplitMix64 stream.

    `state` is the word the stream starts from, and output k (k = 1, 2,
    ...) is mix64(state + k * 0x9E3779B97F4A7C15), the outputs of the
    one-word generator that adds the increment before each output.  They
    are computed 16 at a time; each draw helper reads exactly one and
    adds it to `drawn`, and a draw it refuses reads and counts none.

    So after n draws the stream goes on as the one started at
    state + n * 0x9E3779B97F4A7C15, the word `position()` returns, and
    `skip(n)` moves n outputs on without computing them.
    """

    __slots__ = ("state", "drawn", "_next")

    def __init__(self, seed: int):
        self.state = seed & _MASK
        self.drawn = 0
        self._next = _outputs(self.state).__next__

    def position(self) -> int:
        """The word a fresh stream with the same remaining outputs starts from."""
        return (self.state + self.drawn * _GAMMA) & _MASK

    def skip(self, n: int) -> None:
        """Move n outputs on, as n draws would."""
        self.drawn += n
        self._next = _outputs(self.position()).__next__

    def next_u64(self) -> int:
        self.drawn += 1
        return self._next()

    def below(self, n: int) -> int:
        """Uniform-ish draw from [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        self.drawn += 1
        return self._next() % n

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive range draw."""
        if hi < lo:
            raise ValueError(f"randint({lo}, {hi}) needs lo <= hi")
        self.drawn += 1
        return lo + self._next() % (hi - lo + 1)

    def chance(self, p: float) -> bool:
        self.drawn += 1
        return self._next() < int(p * 18446744073709551616.0)

    def choice(self, seq):
        if not seq:
            raise ValueError(f"choice({seq!r}) needs a non-empty sequence")
        self.drawn += 1
        return seq[self._next() % len(seq)]


def case_stream(seed: int, case_index: int) -> SplitMix64:
    """Independent per-case stream; see the module docstring for the formula."""
    return SplitMix64(mix64(seed + case_index * _GAMMA))


# --------------------------------------------------------------------------
# Generation


class GenConfig(_Frozen):
    """The seed of random program generation; the distribution is fixed."""

    __match_args__ = ("seed",)
    __slots__ = __match_args__

    def __init__(self, seed: int) -> None:
        _check_int(seed, "seed")
        (set_seed,) = self._setters
        set_seed(self, seed)


# The shared leaves: _NUMS[rng.below(9)] is N(rng.randint(_LO, _HI)) and
# _VAR_NODES[rng.below(3)] is V(rng.choice(_VARS)), from the same draw.
_NUMS = tuple(N(v) for v in range(_LO, _HI + 1))
_VAR_NODES = tuple(V(x) for x in _VARS)


def _gen_aexp(rng: SplitMix64, depth: int) -> Aexp:
    if depth <= 0 or rng.below(3) == 0:
        if rng.below(2) == 0:
            return _NUMS[rng.below(9)]
        return _VAR_NODES[rng.below(3)]
    pick = rng.below(3)
    if pick == 0:
        return _NUMS[rng.below(9)]
    if pick == 1:
        return _VAR_NODES[rng.below(3)]
    return Plus(_gen_aexp(rng, depth - 1), _gen_aexp(rng, depth - 1))


def _gen_bexp(rng: SplitMix64, depth: int) -> Bexp:
    if depth <= 0:
        if rng.below(3) == 0:
            return Bc(rng.below(2) == 0)
        return Less(_gen_aexp(rng, 1), _gen_aexp(rng, 1))
    pick = rng.below(6)
    if pick == 0:
        return Bc(rng.below(2) == 0)
    if pick == 1:
        return Not(_gen_bexp(rng, depth - 1))
    if pick == 2:
        return And(_gen_bexp(rng, depth - 1), _gen_bexp(rng, depth - 1))
    return Less(_gen_aexp(rng, 1), _gen_aexp(rng, 1))


def _counting_loop(rng: SplitMix64) -> While:
    # Terminating template: count a fresh variable up to a fresh literal.
    i = rng.below(3)
    x = _VAR_NODES[i]
    return While(Less(x, _NUMS[rng.below(9)]), Set(_VARS[i], Plus(x, _NUMS[1 - _LO])))


def _gen_com(rng: SplitMix64, budget: int) -> Com:
    # Node weights SKIP 1, := 3, WHILE 3, ; 4, IF 2, drawn as one number
    # below their running sum; budget 1 allows only the leaves, budget 2
    # no ; or IF.
    r = rng.below(4 if budget < 2 else 7 if budget < 3 else 13)
    if r < 1:
        return Skip()
    if r < 4:
        return Set(rng.choice(_VARS), _gen_aexp(rng, 2))
    if r < 7:
        if rng.chance(_LOOP_BIAS):
            return _counting_loop(rng)
        return While(_gen_bexp(rng, 2), _gen_com(rng, budget - 1))
    left = rng.randint(1, budget - 2)
    right = budget - 1 - left
    if r < 11:
        return Seq(_gen_com(rng, left), _gen_com(rng, right))
    return If(_gen_bexp(rng, 2), _gen_com(rng, left), _gen_com(rng, right))


def gen_com(cfg: GenConfig, budget: int) -> Com:
    """Deterministic random command with size(c) <= budget."""
    _check_int(budget, "budget", 1)
    return _gen_com(SplitMix64(mix64(cfg.seed)), budget)


def _gen_store(rng: SplitMix64) -> Store:
    # Fresh names from _VARS and ints from randint: nothing to validate.
    return Store._wrap({x: rng.randint(_LO, _HI) for x in _VARS})


def _gen_fuel(rng: SplitMix64) -> int:
    pick = rng.below(10)
    if pick == 0:
        return 0
    if pick == 1:
        return 1
    return rng.randint(0, 64)


def gen_store(cfg: GenConfig) -> Store:
    """Deterministic random store over x, y and z."""
    return _gen_store(SplitMix64(mix64(cfg.seed ^ 0x5353)))


_ENUM_AEXPS = (N(0), N(1), V("x"), Plus(V("x"), N(1)))
_ENUM_BEXPS = (Bc(True), Bc(False), Less(V("x"), N(2)), Not(Less(V("x"), N(2))))
ENUM_STORES = (Store(), Store({"x": -1, "y": 2}), Store({"x": 3}))


def enumerate_coms(max_size: int) -> list[Com]:
    """Every command of size <= max_size over fixed expression pools, by
    size, so a smaller bound gives a prefix (594 / 6,030 / 83,664 at 3 / 4 / 5)."""
    _check_int(max_size, "max_size", 0)
    by_size = {1: [Skip()] + [Set(x, a) for x in ("x", "y") for a in _ENUM_AEXPS]}
    for k in range(2, max_size + 1):
        coms = [While(b, body) for b in _ENUM_BEXPS for body in by_size[k - 1]]
        for left in range(1, k - 1):
            for c1, c2 in product(by_size[left], by_size[k - 1 - left]):
                coms.append(Seq(c1, c2))
                coms.extend(If(b, c1, c2) for b in _ENUM_BEXPS)
        by_size[k] = coms
    return [c for k in range(1, max_size + 1) for c in by_size[k]]


# --------------------------------------------------------------------------
# Fuel search


def fuel_search(
    sem: str, c: Com, s: Store, max_fuel: int
) -> Optional[tuple[int, Union[EnvResult, StateResult]]]:
    """First fuel along 1, 2, 4, ... (capped at max_fuel) giving a result.

    Returns (fuel, result) or None when even max_fuel times out.  By fuel
    monotonicity the found result is canonical for the program and store.
    """
    if sem not in SEMANTICS:
        raise ValueError(f"unknown semantics: {sem!r}")
    _check_int(max_fuel, "max_fuel", 1)
    fn = SEMANTICS[sem]
    fuel = 1
    while True:
        r = fn(c, s, fuel)
        if r is not None:
            return (fuel, r)
        if fuel >= max_fuel:
            return None
        fuel = min(fuel * 2, max_fuel)


# --------------------------------------------------------------------------
# Reports


class Failure(_Frozen):
    __match_args__ = ("case_index", "seed", "inputs", "expected", "actual", "shrunk")
    __slots__ = __match_args__

    def __init__(
        self,
        case_index: int,
        seed: int,
        inputs: dict[str, object],
        expected: str,
        actual: str,
        shrunk: Optional[dict[str, object]] = None,
    ) -> None:
        set_case_index, set_seed, set_inputs, set_expected, set_actual, set_shrunk = self._setters
        set_case_index(self, case_index)
        set_seed(self, seed)
        set_inputs(self, inputs)
        set_expected(self, expected)
        set_actual(self, actual)
        set_shrunk(self, shrunk)

    def to_json_dict(self) -> dict[str, object]:
        d: dict[str, object] = {
            "case": self.case_index,
            "seed": self.seed,
            "inputs": self.inputs,
            "expected": self.expected,
            "actual": self.actual,
        }
        if self.shrunk is not None:
            d["shrunk"] = self.shrunk
        return d


class PropertyReport(_Frozen):
    __match_args__ = ("property_id", "cases_run", "failures", "elapsed_ms", "skipped", "details")
    __slots__ = __match_args__

    def __init__(
        self,
        property_id: str,
        cases_run: int,
        failures: list[Failure],
        elapsed_ms: int,
        skipped: int = 0,
        details: Optional[dict[str, object]] = None,
    ) -> None:
        set_property_id, set_cases_run, set_failures, set_elapsed_ms, set_skipped, set_details = self._setters
        set_property_id(self, property_id)
        set_cases_run(self, cases_run)
        set_failures(self, failures)
        set_elapsed_ms(self, elapsed_ms)
        set_skipped(self, skipped)
        set_details(self, {} if details is None else details)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict[str, object]:
        d: dict[str, object] = {
            "property": self.property_id,
            "cases": self.cases_run,
            "failures": [f.to_json_dict() for f in self.failures],
            "elapsed_ms": self.elapsed_ms,
            "skipped": self.skipped,
        }
        if self.details:
            d["details"] = self.details
        return d


# --------------------------------------------------------------------------
# Case checkers.  A checker is a pure function of its structured inputs and
# returns None (pass), SKIPPED (premises not met), or (expected, actual).

SKIPPED = object()

_CheckOutcome = Union[None, object, tuple[str, str]]
_Checker = Callable[[dict[str, object]], _CheckOutcome]


def _render(r: Union[EnvResult, StateResult]) -> str:
    """A passed-down clock's bare store, or a threaded clock's (store, leftover)."""
    if r is None:
        return "timeout"
    if isinstance(r, Store):
        return f"final {r.to_dict()}"
    return f"final ({r[0].to_dict()}, leftover {r[1]})"


def _check_p1(inp: dict[str, object]) -> _CheckOutcome:
    c, s, t = inp["program"], inp["store"], inp["fuel"]
    for name, fn, strict in (
        ("cval", cval, False),
        ("cval_guard", cval_guard, False),
        ("cval_tick", cval_tick, True),
    ):
        r = fn(c, s, t)
        if r is not None:
            leftover = r[1]
            bad = leftover >= t if strict else leftover > t
            if bad:
                op = "<" if strict else "<="
                return (f"{name} leftover {op} input fuel {t}", f"leftover {leftover}")
    return None


def _check_p2(inp: dict[str, object]) -> _CheckOutcome:
    c, s, t = inp["program"], inp["store"], inp["fuel"]
    r = cval(c, s, t)
    wrapped = fix_clock(t, r)
    if wrapped != r:
        return (f"fix_clock({t}, r) == r where r = {_render(r)}", _render(wrapped))
    return None


def _check_p3(inp: dict[str, object]) -> _CheckOutcome:
    c, s, t = inp["program"], inp["store"], inp["fuel"]
    a = cval(c, s, t)
    b = cval_guard(c, s, t)
    if a != b:
        return (f"cval_guard == cval == {_render(a)}", _render(b))
    return None


def _padded(p: Com, q: Com) -> Com:
    return Seq(Seq(p, Skip()), Seq(Skip(), q))


def _check_p4(inp: dict[str, object]) -> _CheckOutcome:
    p, q, s, t = inp["first"], inp["second"], inp["store"], inp["fuel"]
    lhs = ev_min(_padded(p, q), s, t)
    rhs = ev_min(Seq(p, q), s, t)
    if lhs != rhs:
        return (f"padded == plain == {_render(rhs)}", _render(lhs))
    return None


def _check_p5(inp: dict[str, object]) -> _CheckOutcome:
    p, q, s, t = inp["first"], inp["second"], inp["store"], inp["fuel"]
    if t <= 2:  # P5 only claims anything for clocks above 2
        return SKIPPED
    sample = trace_stores(Seq(p, q), s, _P5_TRACE_CAP)
    sample.update(inp["premise_stores"])
    for sigma in sample:
        if ev(p, sigma, t - 1) != ev(p, sigma, t - 2):
            return SKIPPED
        if ev(q, sigma, t - 1) != ev(q, sigma, t - 2):
            return SKIPPED
    lhs = ev(_padded(p, q), s, t)
    rhs = ev(Seq(p, q), s, t)
    if lhs != rhs:
        return (
            f"padded == plain == {_render(rhs)} (premises held on {len(sample)} stores)",
            _render(lhs),
        )
    return None


def _check_p6(inp: dict[str, object]) -> _CheckOutcome:
    c, s, t, k = inp["program"], inp["store"], inp["fuel"], inp["extra"]
    for name, fn in (("ev", ev), ("ev_min", ev_min)):
        r = fn(c, s, t)
        if r is not None:
            r2 = fn(c, s, t + k)
            if r2 != r:
                return (f"{name} at fuel {t + k} == {_render(r)}", _render(r2))
    return None


def _check_p7(inp: dict[str, object]) -> _CheckOutcome:
    c, s, t = inp["program"], inp["store"], inp["fuel"]
    r = ev(c, s, t)
    if r is not None:
        r2 = ev_min(c, s, t)
        if r2 != r:
            return (f"ev_min at fuel {t} == {_render(r)}", _render(r2))
    return None


def _check_p8a(inp: dict[str, object]) -> _CheckOutcome:
    c, s, t = inp["program"], inp["store"], inp["fuel"]
    k1, k2 = inp["extra"], inp["extra2"]
    for name, fn in (("cval", cval), ("cval_tick", cval_tick)):
        r = fn(c, s, t)
        if r is not None:
            s1, t1 = r
            for k in (k1, k2):
                rk = fn(c, s, t + k)
                if rk != (s1, t1 + k):
                    return (
                        f"P8a: {name} at fuel {t + k} == final ({s1.to_dict()}, leftover {t1 + k})",
                        _render(rk),
                    )
    return None


def _check_p8b(inp: dict[str, object]) -> _CheckOutcome:
    c, s, t = inp["program"], inp["store"], inp["fuel"]
    r = cval(c, s, t)
    if r is not None:
        r2 = ev_min(c, s, t)
        if r2 != r[0]:
            return (f"P8b: ev_min at fuel {t} == final {r[0].to_dict()}", _render(r2))
    return None


def _check_p8c(inp: dict[str, object]) -> _CheckOutcome:
    c, s = inp["program"], inp["store"]
    fuels = inp["fuels"]
    finals: list[tuple[str, int, Store]] = []
    for name, fn in SEMANTICS.items():
        for t in fuels:
            r = fn(c, s, t)
            if r is None:
                continue
            store = r if isinstance(r, Store) else r[0]
            finals.append((name, t, store))
    for name, t, store in finals[1:]:
        ref_name, ref_t, ref_store = finals[0]
        if store != ref_store:
            return (
                f"P8c: {name}@{t} agrees with {ref_name}@{ref_t} on final {ref_store.to_dict()}",
                f"final {store.to_dict()}",
            )
    return None


def _check_p8(inp: dict[str, object]) -> _CheckOutcome:
    """Fuel additivity, length-dominates-depth, and cross-semantics agreement."""
    for sub in (_check_p8a, _check_p8b, _check_p8c):
        outcome = sub(inp)
        if outcome is not None:
            return outcome
    return None


def p9_agreement(c: Com, s: Store, outcome: Terminated, while_steps: int) -> Optional[tuple[str, str]]:
    """P9 on a case the oracle ran to `outcome` in `while_steps` unfolds:
    None, or (expected, actual) for the first evaluator that disagrees."""
    s_fin, n = outcome.store, outcome.steps
    want = f"final {s_fin.to_dict()}"

    r = cval(c, s, n + 1)
    if r is None or r[0] != s_fin:
        return (f"cval at fuel {n + 1} reaches {want}", _render(r))
    unfolds = (n + 1) - r[1]
    if not unfolds <= while_steps <= n:
        return (
            f"cval unfolds <= oracle While steps <= oracle steps {n}",
            f"unfolds {unfolds}, While steps {while_steps}",
        )

    r2 = ev_min(c, s, n + 1)
    if r2 != s_fin:
        return (f"ev_min at fuel {n + 1} reaches {want}", _render(r2))

    bound = search_bound(n, size(c))
    for sem in ("ev", "cval_tick"):
        found = fuel_search(sem, c, s, bound)
        if found is None:
            return (f"{sem} found within fuel {bound}", "not found")
        _, res = found
        store = res if isinstance(res, Store) else res[0]
        if store != s_fin:
            return (f"{sem} search reaches {want}", f"final {store.to_dict()}")
    return None


def _check_p9(inp: dict[str, object]) -> _CheckOutcome:
    c, s = inp["program"], inp["store"]
    outcome, while_steps = run_oracle_stats(c, s, ORACLE_CAP)
    if isinstance(outcome, StepLimit):
        return None
    return p9_agreement(c, s, outcome, while_steps)


def _p10_sweep(c: Com, s: Store, first: int = 0, step: int = 1) -> Optional[tuple[str, str]]:
    """Fuels first, first + step, ... up to the ceiling, each under the five
    semantics in order: None if every run times out, else (expected,
    actual) for the first that does not."""
    for fuel in range(first, TIMEOUT_FUEL_CEILING + 1, step):
        for name, fn in SEMANTICS.items():
            r = fn(c, s, fuel)
            if r is not None:
                return (f"{name} times out at every fuel <= {TIMEOUT_FUEL_CEILING}", f"{name} at fuel {fuel}: {_render(r)}")
    return None


def _split_sweep_times_out(c: Com, s: Store, n: int) -> bool:
    """Whether every run of P10's sweep times out, the sweep split over
    this process and n - 1 helpers (see ``_Forks``): process j runs fuels
    j, j + n, ...

    A helper sends one byte, whether all its runs timed out.  False says
    only that something else happened somewhere; which one is for the
    serial sweep to find.
    """

    def times_out(first: int) -> bool:
        try:
            return _p10_sweep(c, s, first, n) is None
        except Exception:  # the serial sweep raises it, or what comes before it
            return False

    with _Forks() as forks:
        readers = [forks.start(lambda out, j=j: out.write(b"1" if times_out(j) else b"0")) for j in range(1, n)]
        return times_out(0) and all(reader.read(1) == b"1" for reader in readers)


def _check_p10(inp: dict[str, object], sweep: int = 1) -> _CheckOutcome:
    """P10 on one case: a step-limited case must time out under all five
    semantics at every fuel up to the ceiling.

    The sweep runs on `sweep` processes (see ``Campaigns.sweep``) and
    forks only for a step-limited case.  Split, it only tells whether
    every run timed out; on anything else the sweep runs again here,
    serially (see ``_Forks``), so that a failure, its message and shrunk
    input, or the exception raised are exactly those of the serial sweep.
    """
    c, s = inp["program"], inp["store"]
    outcome = run_oracle(c, s, ORACLE_CAP)
    if isinstance(outcome, Terminated):
        return None
    if sweep > 1 and _split_sweep_times_out(c, s, sweep):
        return None
    return _p10_sweep(c, s)


def _check_rt(inp: dict[str, object]) -> _CheckOutcome:
    c = inp["program"]
    text = pretty(c)
    try:
        back = parse_com(text)
    except ParseError as e:
        return (f"parse of {text!r} == original", f"ParseError: {e}")
    if back != c:
        return (f"parse of {text!r} == original", pretty(back))
    return None


# Triples a worker of a `check` draws once: stream position -> (program,
# store, fuel, outputs drawn).  At about 0.6 KB a case, a full memo is 1.3 MB.
_CaseMemo = dict[int, tuple[Com, Store, int, int]]
_MEMO_CASES = 2048


def _gen_triple(rng: SplitMix64, memo: Optional[_CaseMemo] = None) -> dict[str, object]:
    """A fresh (program, store, fuel) dict; with a memo, drawn once per
    stream position and, when found there, `rng` moved on past it."""
    if memo is None:
        return {"program": _gen_com(rng, _MAX_SIZE), "store": _gen_store(rng), "fuel": _gen_fuel(rng)}
    key = rng.position()
    entry = memo.get(key)
    if entry is None:
        start = rng.drawn
        c, s, t = _gen_com(rng, _MAX_SIZE), _gen_store(rng), _gen_fuel(rng)
        entry = (c, s, t, rng.drawn - start)
        if len(memo) < _MEMO_CASES:
            memo[key] = entry
    else:
        rng.skip(entry[3])
    return {"program": entry[0], "store": entry[1], "fuel": entry[2]}


def _gen_case(
    property_id: str, rng: SplitMix64, memo: Optional[_CaseMemo] = None, sweep: int = 1
) -> tuple[dict[str, object], _Checker]:
    """Case inputs drawn from `rng`, and their checker; P10's runs its
    sweep on `sweep` processes."""
    if property_id in ("P1", "P2", "P3"):
        return _gen_triple(rng, memo), {"P1": _check_p1, "P2": _check_p2, "P3": _check_p3}[property_id]
    if property_id == "P4":
        return {
            "first": _gen_com(rng, _MAX_SIZE),
            "second": _gen_com(rng, _MAX_SIZE),
            "store": _gen_store(rng),
            "fuel": _gen_fuel(rng),
        }, _check_p4
    if property_id == "P5":
        return {
            "first": _gen_com(rng, _MAX_SIZE),
            "second": _gen_com(rng, _MAX_SIZE),
            "store": _gen_store(rng),
            "fuel": rng.randint(3, 64),
            "premise_stores": tuple(_gen_store(rng) for _ in range(_P5_EXTRA_STORES)),
        }, _check_p5
    if property_id == "P6":
        inp = _gen_triple(rng, memo)
        inp["extra"] = rng.randint(0, 16)
        return inp, _check_p6
    if property_id == "P7":
        return _gen_triple(rng, memo), _check_p7
    if property_id == "P8":
        inp = _gen_triple(rng, memo)
        inp["extra"] = rng.randint(1, 8)
        inp["extra2"] = inp["extra"] + rng.randint(1, 8)
        inp["fuels"] = (_gen_fuel(rng), _gen_fuel(rng), _gen_fuel(rng))
        return inp, _check_p8
    if property_id in ("P9", "P10"):
        return {
            "program": _gen_com(rng, _MAX_SIZE),
            "store": _gen_store(rng),
        }, _check_p9 if property_id == "P9" else lambda inp: _check_p10(inp, sweep)
    if property_id == "RT":
        return {"program": _gen_com(rng, _MAX_SIZE)}, _check_rt
    raise ValueError(f"unknown property id: {property_id!r}")


_DETAILS: dict[str, dict[str, object]] = {
    "P5": {"premise_sample": f"trace-reachable stores plus {_P5_EXTRA_STORES} random"},
    "P9": {"oracle_cap": ORACLE_CAP, "search_bound": "4*(steps+size)+8"},
    "P10": {"oracle_cap": ORACLE_CAP, "fuel_ceiling": TIMEOUT_FUEL_CEILING},
}


# --------------------------------------------------------------------------
# Shrinking


_Node = Union[Aexp, Bexp, Com]
_NODE_TYPES = get_args(_Node)


def _int_shrinks(v: int) -> Iterator[int]:
    """Toward zero: 0, then v halved toward zero unless that is 0 as well."""
    if v != 0:
        yield 0
        half = v // 2 if v > 0 else -((-v) // 2)
        if half != 0:
            yield half


def _node_shrinks(node: _Node) -> Iterator[_Node]:
    """SKIP for a command other than SKIP, a literal toward zero, then for
    each field that is a node, left to right, the node rebuilt with that
    field replaced by each of its own shrinks."""
    cls = type(node)
    if isinstance(node, Com) and cls is not Skip:
        yield Skip()
    if cls is N:
        for v in _int_shrinks(node.value):
            yield N(v)
    args = [getattr(node, name) for name in cls.__match_args__]
    for i, arg in enumerate(args):
        if isinstance(arg, _NODE_TYPES):
            for new in _node_shrinks(arg):
                yield cls(*args[:i], new, *args[i + 1 :])


def _value_shrinks(v: object) -> Iterator[object]:
    if isinstance(v, int):
        seen = set()
        for cand in (0, v // 2, v - 1):
            if 0 <= cand < v and cand not in seen:
                seen.add(cand)
                yield cand
        return
    if isinstance(v, Store):
        for name, value in v.to_dict().items():
            for nv in _int_shrinks(value):
                yield v.set(name, nv)
        return
    if isinstance(v, tuple):
        if all(isinstance(x, int) for x in v):
            for i, x in enumerate(v):
                for nx in _value_shrinks(x):
                    yield v[:i] + (nx,) + v[i + 1 :]
        else:
            for i in range(len(v)):
                yield v[:i] + v[i + 1 :]
        return
    if isinstance(v, Com):
        yield from _node_shrinks(v)


def _shrink_candidates(inputs: dict[str, object]) -> Iterator[dict[str, object]]:
    for key, v in inputs.items():
        for nv in _value_shrinks(v):
            cand = dict(inputs)
            cand[key] = nv
            yield cand


def _shrink(inputs: dict[str, object], check: _Checker) -> dict[str, object]:
    """Greedy descent: accept the first candidate that still fails."""
    current = inputs
    for _ in range(500):
        for cand in _shrink_candidates(current):
            outcome = check(cand)
            if outcome is not None and outcome is not SKIPPED:
                current = cand
                break
        else:
            return current
    return current


# --------------------------------------------------------------------------
# Campaign driver


def _render_value(v: object) -> object:
    if isinstance(v, Com):
        return pretty(v)
    if isinstance(v, Store):
        return v.to_dict()
    if isinstance(v, tuple):
        return [_render_value(x) for x in v]
    return v


def _render_inputs(inputs: dict[str, object]) -> dict[str, object]:
    return {k: _render_value(v) for k, v in inputs.items()}


def _scan_share(
    property_id: str, cfg: GenConfig, cases: int, first: int, step: int, memo: _CaseMemo, sweep: int
) -> tuple[int, list[int]]:
    """Cases first, first + step, ... below `cases` of one campaign, with
    P10's sweeps on `sweep` processes.

    Returns (skipped, flagged): flagged lists the cases that failed, then
    the first that raised, where the share stops as a lone campaign would.
    """
    skipped = 0
    flagged: list[int] = []
    for k in range(first, cases, step):
        try:
            inputs, check = _gen_case(property_id, case_stream(cfg.seed, k), memo, sweep)
            outcome = check(inputs)
        except Exception:  # raised again by _failure, after the earlier cases
            flagged.append(k)
            break
        if outcome is SKIPPED:
            skipped += 1
        elif outcome is not None:
            flagged.append(k)
    return skipped, flagged


def _failure(property_id: str, cfg: GenConfig, k: int, sweep: int) -> Failure:
    """The failure of case k, which a scan flagged, checked again in this
    process and shrunk.  A checker is a pure function of its inputs, so
    the case fails again, or raises the error it raised in the scan."""
    inputs, check = _gen_case(property_id, case_stream(cfg.seed, k), sweep=sweep)
    expected, actual = check(inputs)
    shrunk = _shrink(inputs, check)
    return Failure(
        case_index=k,
        seed=cfg.seed,
        inputs=_render_inputs(inputs),
        expected=expected,
        actual=actual,
        shrunk=_render_inputs(shrunk) if shrunk != inputs else None,
    )


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where a fork is unsafe:
    without ``os.sched_getaffinity`` (off Linux), or with a second
    thread, as /proc/self/task lists them."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus > 1:
        try:
            if len(os.listdir("/proc/self/task")) > 1:
                return 1
        except OSError:
            return 1
    return cpus


class _Forks:
    """The child processes of one fork site, and the one rule they share.

    ``start(body)`` forks a child that runs ``body(out)`` and returns the
    read end of the pipe `out` writes to.  A child sends only counts and
    case indices, never a result or an exception, and the caller does
    anything else itself: a short or empty read (a child that raised, was
    lost, or was never forked) means that the child's work runs in the
    calling process.  Where no process is to be had (one CPU, a second
    thread, or a pipe or fork that fails with OSError), ``start`` forks
    nothing and returns an empty reader, which reads as a lost child.

    Forking keeps the process as it is (its imports, and any evaluator a
    test replaced), so a child starts at once.  The child ignores SIGINT,
    since its parent stops it, never prints, and leaves with ``os._exit``
    however `body` ends.  Leaving the ``with`` block kills every child
    still running and reaps each one.
    """

    def __init__(self) -> None:
        self._children: list[tuple[int, BinaryIO]] = []  # (pid, its pipe's read end)

    def __enter__(self) -> "_Forks":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._children:
            import signal

            while self._children:
                pid, reader = self._children.pop()
                reader.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # reaped already
                    pass

    def start(self, body: Callable[[BinaryIO], object]) -> BinaryIO:
        """Forks a child that runs ``body(out)``; returns what it writes to `out`."""
        if _cpus() < 2:
            return io.BytesIO()
        import signal

        try:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
        except OSError:  # no process to be had
            return io.BytesIO()
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(r)
                with open(w, "wb") as out:
                    body(out)
            finally:
                os._exit(0)
        os.close(w)
        reader = open(r, "rb")
        self._children.append((pid, reader))
        return reader


class Campaigns(_Forks):
    """The worker processes and case memos of one `check`: the campaigns
    of `property_ids`, in that order, `cases` cases each at `cfg`.

    Case k of every campaign runs on worker k mod W, W being the CPUs
    this process may run on (``_cpus``), at most `cases` and at least 1.
    Worker 0 is this process and runs its cases inside ``run_property``.
    Entering starts the other W - 1 once; each checks its cases of every
    campaign in order, ahead of the parent, and sends one line per
    campaign down its pipe (see ``_Forks``).  Every worker keeps one
    memo, so it draws each of its shared triples once.

    `sweep` is cpus // W: the processes that P10's fuel sweep of a
    step-limited case runs on in this process, 1 when the workers hold
    every CPU.  A forked worker sweeps serially: a worker its parent
    kills could not reap helpers of its own.
    """

    def __init__(self, property_ids: Sequence[str], cfg: GenConfig, cases: int) -> None:
        for pid in property_ids:
            if pid not in PROPERTY_IDS:
                raise ValueError(f"unknown property id: {pid!r}")
        _check_int(cases, "cases", 0)
        super().__init__()
        self.property_ids = tuple(property_ids)
        self.cfg = cfg
        self.cases = cases
        cpus = _cpus()
        self.workers = max(1, min(cpus, cases))
        self.sweep = cpus // self.workers
        self.memo: _CaseMemo = {}  # worker 0's; each forked worker fills its own copy
        self._done = 0  # campaigns run so far
        self._readers: list[BinaryIO] = []  # worker index - 1 -> its pipe's read end

    def __enter__(self) -> "Campaigns":
        try:
            for index in range(1, self.workers):
                self._readers.append(self.start(lambda out, index=index: self._scan_shares(out, index)))
        except BaseException:
            self.__exit__()
            raise
        return self

    def _scan_shares(self, out: BinaryIO, index: int) -> None:
        """Worker `index`: scans its share of each campaign and writes one
        line per campaign to `out`: "skipped k1 k2 ..."."""
        for property_id in self.property_ids:
            skipped, flagged = _scan_share(property_id, self.cfg, self.cases, index, self.workers, self.memo, 1)
            out.write(" ".join(map(str, (skipped, *flagged))).encode() + b"\n")
            out.flush()

    def _run(self, property_id: str, cfg: GenConfig, cases: int) -> tuple[int, list[Failure]]:
        """The next campaign: this process's share and every worker's line.
        Returns (skipped, failures in case order), or raises what the first
        case that raised raised; both come from this process."""
        planned = self.property_ids[self._done : self._done + 1]
        if (property_id, cfg, cases) != (planned[0] if planned else None, self.cfg, self.cases):
            raise ValueError(f"campaign {property_id!r} at {cfg!r}, {cases} cases, is not the next one planned")
        self._done += 1
        skipped, flagged = _scan_share(property_id, cfg, cases, 0, self.workers, self.memo, self.sweep)
        for index, reader in enumerate(self._readers, 1):
            line = reader.readline()
            if line.endswith(b"\n"):
                share_skipped, *share_flagged = map(int, line.split())
            else:  # the worker is lost or never forked; its reader stays at EOF, so its later shares run here too
                share_skipped, share_flagged = _scan_share(property_id, cfg, cases, index, self.workers, self.memo, self.sweep)
            skipped += share_skipped
            flagged += share_flagged
        return skipped, [_failure(property_id, cfg, k, self.sweep) for k in sorted(flagged)]


def run_property(
    property_id: str, cfg: GenConfig, cases: int, campaigns: Optional[Campaigns] = None
) -> PropertyReport:
    """Run one property campaign over `cases` generated inputs.

    Case k draws everything it needs from ``case_stream(cfg.seed, k)``,
    so any failure is replayable from (property_id, cfg.seed, k); on
    failure the inputs are greedily shrunk before reporting.  The cases
    run on the processes of `campaigns`, whose next campaign this must
    be; without it, the campaign opens its own.  Campaigns run through
    one `Campaigns` draw each shared (program, store, fuel) triple once
    per worker.  No report depends on either.
    """
    if campaigns is None:
        with Campaigns((property_id,), cfg, cases) as campaigns:
            return run_property(property_id, cfg, cases, campaigns)
    t0 = time.perf_counter()
    skipped, failures = campaigns._run(property_id, cfg, cases)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return PropertyReport(
        property_id=property_id,
        cases_run=cases,
        failures=failures,
        elapsed_ms=elapsed_ms,
        skipped=skipped,
        details=dict(_DETAILS.get(property_id, {})),
    )


def replay_case(property_id: str, cfg: GenConfig, case_index: int) -> tuple[dict[str, object], str]:
    """Re-generate and re-check one campaign case.

    Returns the rendered inputs and "pass", "skip", or "fail: ..." so a
    reported failure can be reproduced in isolation.  A P10 sweep runs on
    every CPU the process may use.
    """
    _check_int(case_index, "case_index", 0)
    rng = case_stream(cfg.seed, case_index)
    inputs, check = _gen_case(property_id, rng, sweep=_cpus())
    outcome = check(inputs)
    if outcome is None:
        verdict = "pass"
    elif outcome is SKIPPED:
        verdict = "skip"
    else:
        verdict = f"fail: expected {outcome[0]}; got {outcome[1]}"
    return _render_inputs(inputs), verdict

