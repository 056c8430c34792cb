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

import struct
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Optional, Union, get_args

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
    are computed 16 at a time; each draw helper reads exactly one.
    """

    __slots__ = ("state", "_next")

    def __init__(self, seed: int):
        self.state = seed & _MASK
        self._next = _outputs(self.state).__next__

    def next_u64(self) -> int:
        return self._next()

    def below(self, n: int) -> int:
        """Uniform-ish draw from [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self._next() % n

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive range draw."""
        if hi < lo:
            raise ValueError(f"randint({lo}, {hi}) needs lo <= hi")
        return lo + self._next() % (hi - lo + 1)

    def chance(self, p: float) -> bool:
        return self._next() < int(p * 18446744073709551616.0)

    def choice(self, seq):
        if not seq:
            raise ValueError(f"choice({seq!r}) needs a non-empty sequence")
        return seq[self._next() % len(seq)]


def case_stream(seed: int, case_index: int) -> SplitMix64:
    """Independent per-case stream; see the module docstring for the formula."""
    return SplitMix64(mix64(seed + case_index * _GAMMA))


# --------------------------------------------------------------------------
# Generation


@dataclass(frozen=True)
class GenConfig:
    """The seed of random program generation; the distribution is fixed."""

    seed: int

    def __post_init__(self) -> None:
        _check_int(self.seed, "seed")


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


@dataclass
class Failure:
    case_index: int
    seed: int
    inputs: dict[str, object]
    expected: str
    actual: str
    shrunk: Optional[dict[str, object]] = None

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


@dataclass
class PropertyReport:
    property_id: str
    cases_run: int
    failures: list[Failure]
    elapsed_ms: int
    skipped: int = 0
    details: dict[str, object] = field(default_factory=dict)

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


def _check_p10(inp: dict[str, object]) -> _CheckOutcome:
    c, s = inp["program"], inp["store"]
    outcome = run_oracle(c, s, ORACLE_CAP)
    if isinstance(outcome, Terminated):
        return None
    for fuel in range(TIMEOUT_FUEL_CEILING + 1):
        for name, fn in SEMANTICS.items():
            r = fn(c, s, fuel)
            if r is not None:
                return (f"{name} times out at every fuel <= {TIMEOUT_FUEL_CEILING}", f"{name} at fuel {fuel}: {_render(r)}")
    return None


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


def _gen_triple(rng: SplitMix64) -> dict[str, object]:
    return {
        "program": _gen_com(rng, _MAX_SIZE),
        "store": _gen_store(rng),
        "fuel": _gen_fuel(rng),
    }


def _gen_case(property_id: str, rng: SplitMix64) -> tuple[dict[str, object], _Checker]:
    if property_id in ("P1", "P2", "P3"):
        return _gen_triple(rng), {"P1": _check_p1, "P2": _check_p2, "P3": _check_p3}[property_id]
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
        inp = _gen_triple(rng)
        inp["extra"] = rng.randint(0, 16)
        return inp, _check_p6
    if property_id == "P7":
        return _gen_triple(rng), _check_p7
    if property_id == "P8":
        inp = _gen_triple(rng)
        inp["extra"] = rng.randint(1, 8)
        inp["extra2"] = inp["extra"] + rng.randint(1, 8)
        inp["fuels"] = (_gen_fuel(rng), _gen_fuel(rng), _gen_fuel(rng))
        return inp, _check_p8
    if property_id in ("P9", "P10"):
        return {
            "program": _gen_com(rng, _MAX_SIZE),
            "store": _gen_store(rng),
        }, _check_p9 if property_id == "P9" else _check_p10
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
        for name in v.names():
            for nv in _int_shrinks(v.get(name)):
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


def run_property(property_id: str, cfg: GenConfig, cases: int) -> PropertyReport:
    """Run one property campaign over `cases` generated inputs.

    Case k draws everything it needs from ``case_stream(cfg.seed, k)``,
    so any failure is replayable from (property_id, cfg.seed, k); on
    failure the inputs are greedily shrunk before reporting.
    """
    if property_id not in PROPERTY_IDS:
        raise ValueError(f"unknown property id: {property_id!r}")
    _check_int(cases, "cases", 0)
    t0 = time.perf_counter()
    failures: list[Failure] = []
    skipped = 0
    for k in range(cases):
        rng = case_stream(cfg.seed, k)
        inputs, check = _gen_case(property_id, rng)
        outcome = check(inputs)
        if outcome is None:
            continue
        if outcome is SKIPPED:
            skipped += 1
            continue
        expected, actual = outcome
        shrunk = _shrink(inputs, check)
        failures.append(
            Failure(
                case_index=k,
                seed=cfg.seed,
                inputs=_render_inputs(inputs),
                expected=expected,
                actual=actual,
                shrunk=_render_inputs(shrunk) if shrunk != inputs else None,
            )
        )
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
    reported failure can be reproduced in isolation.
    """
    _check_int(case_index, "case_index", 0)
    rng = case_stream(cfg.seed, case_index)
    inputs, check = _gen_case(property_id, rng)
    outcome = check(inputs)
    if outcome is None:
        verdict = "pass"
    elif outcome is SKIPPED:
        verdict = "skip"
    else:
        verdict = f"fail: expected {outcome[0]}; got {outcome[1]}"
    return _render_inputs(inputs), verdict


__all__ = [
    "ENUM_STORES",
    "Failure",
    "GenConfig",
    "ORACLE_CAP",
    "PROPERTY_IDS",
    "PropertyReport",
    "SEMANTICS",
    "SKIPPED",
    "SplitMix64",
    "TIMEOUT_FUEL_CEILING",
    "case_stream",
    "enumerate_coms",
    "fuel_search",
    "gen_com",
    "gen_store",
    "mix64",
    "p9_agreement",
    "replay_case",
    "run_property",
    "search_bound",
]
