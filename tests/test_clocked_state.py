"""Defining-equation tests for the threaded-clock evaluators."""

import pytest

from clockwork.clocked_env import least_fuel
from clockwork.clocked_state import cval, cval_guard, cval_tick, fix_clock
from clockwork.imp import Bc, If, Less, N, Plus, Seq, Set, Skip, Store, V, While, bval
from clockwork.parser import parse_com
from clockwork.smallstep import iter_trace
from clockwork.testkit import SEMANTICS, case_stream
from clockwork.testkit import _gen_com, _gen_fuel, _gen_store  # test-scale generators

S0 = Store()
S1 = Store({"x": 3, "y": -1})

BODY = Set("x", Plus(V("x"), N(1)))
LOOP = While(Less(V("x"), N(3)), BODY)
WORKED = parse_com("x := 0 ; WHILE x < 3 DO x := x + 1 OD")


def _cases(n=60, seed=31, budget=8):
    for k in range(n):
        rng = case_stream(seed, k)
        yield _gen_com(rng, budget), _gen_store(rng), _gen_fuel(rng)


# --- fix_clock: two clauses ---


def test_fix_clock_timeout_clause():
    assert fix_clock(5, None) is None
    assert fix_clock(0, None) is None


def test_fix_clock_final_clause():
    assert fix_clock(5, (S1, 7)) == (S1, 5)  # clamp down
    assert fix_clock(5, (S1, 3)) == (S1, 3)  # leave alone
    assert fix_clock(5, (S1, 5)) == (S1, 5)  # boundary: not below input


# --- cval: five clauses ---


def test_cval_clause_skip():
    for t in (0, 1, 9):
        assert cval(Skip(), S1, t) == (S1, t)


def test_cval_clause_set():
    assert cval(Set("x", N(7)), S1, 4) == (S1.set("x", 7), 4)
    assert cval(Set("y", Plus(V("x"), N(1))), S1, 0) == (S1.set("y", 4), 0)


def test_cval_clause_seq_threads_and_clamps():
    for c1, s, t in _cases():
        c2 = Set("z", Plus(V("z"), N(1)))
        lhs = cval(Seq(c1, c2), s, t)
        mid = fix_clock(t, cval(c1, s, t))
        rhs = None if mid is None else cval(c2, mid[0], mid[1])
        assert lhs == rhs


def test_cval_clause_if():
    for c, s, t in _cases():
        guard = Less(V("y"), V("x"))
        other = Set("x", N(0))
        chosen = c if bval(guard, s) else other
        assert cval(If(guard, c, other), s, t) == cval(chosen, s, t)


def test_cval_clause_while():
    assert cval(While(Bc(False), Skip()), S1, 6) == (S1, 6)
    assert cval(While(Bc(True), Skip()), S1, 0) is None
    for _, s, t in _cases():
        if t == 0:
            continue
        w = While(Less(V("x"), N(2)), BODY)
        expected = cval(Seq(BODY, w), s, t - 1) if bval(w.guard, s) else (s, t)
        assert cval(w, s, t) == expected


def test_cval_worked_example():
    assert cval(WORKED, S0, 3) == (Store({"x": 3}), 0)
    assert cval(WORKED, S0, 2) is None


# --- cval_guard ---


def test_cval_guard_identical_clauses():
    assert cval_guard(Skip(), S1, 9) == (S1, 9)
    assert cval_guard(WORKED, S0, 3) == (Store({"x": 3}), 0)


def test_cval_guard_seq_clause():
    # the consumption-site clamp: continue with (t if t < t2 else t2)
    for c1, s, t in _cases():
        c2 = Set("y", N(1))
        lhs = cval_guard(Seq(c1, c2), s, t)
        mid = cval_guard(c1, s, t)
        if mid is None:
            assert lhs is None
        else:
            s2, t2 = mid
            assert lhs == cval_guard(c2, s2, t if t < t2 else t2)


def test_cval_guard_matches_cval_on_generated_triples():
    for c, s, t in _cases(1000, seed=37, budget=12):
        assert cval_guard(c, s, t) == cval(c, s, t)


# --- cval_tick (reconstructed decrement-everywhere threaded clock) ---


def test_cval_tick_clause_fuel_zero():
    for c in (Skip(), Set("x", N(1)), LOOP, Seq(Skip(), Skip())):
        assert cval_tick(c, S1, 0) is None


def test_cval_tick_clause_skip():
    assert cval_tick(Skip(), S1, 1) == (S1, 0)
    assert cval_tick(Skip(), S1, 9) == (S1, 8)


def test_cval_tick_clause_set():
    assert cval_tick(Set("x", N(7)), S1, 3) == (S1.set("x", 7), 2)


def test_cval_tick_clause_seq():
    assert cval_tick(Seq(Skip(), Skip()), S1, 3) == (S1, 0)
    for c1, s, t in _cases():
        c2 = Set("z", N(2))
        lhs = cval_tick(Seq(c1, c2), s, t + 1)
        mid = fix_clock(t, cval_tick(c1, s, t))
        rhs = None if mid is None else cval_tick(c2, mid[0], mid[1])
        assert lhs == rhs


def test_cval_tick_clause_if():
    for c, s, t in _cases():
        guard = Less(V("x"), N(1))
        other = Skip()
        chosen = c if bval(guard, s) else other
        assert cval_tick(If(guard, c, other), s, t + 1) == cval_tick(chosen, s, t)


def test_cval_tick_clause_while():
    for _, s, t in _cases():
        w = While(Less(V("x"), N(2)), BODY)
        if bval(w.guard, s):
            assert cval_tick(w, s, t + 1) == cval_tick(Seq(BODY, w), s, t)
        else:
            assert cval_tick(w, s, t + 1) == (s, t)


def test_cval_tick_strict_decrease():
    for c, s, t in _cases(300, seed=41, budget=12):
        r = cval_tick(c, s, t)
        if r is not None:
            assert r[1] < t


# --- the unfold law, against the small-step trace ---


def test_consumed_fuel_counts_while_unfolds():
    # cval ticks only at a While unfold whose guard holds, so at fuel t it
    # ends with t - u left when the trace unfolds u <= t times, and times
    # out otherwise.  The trace is the independent small-step relation.
    finals = timeouts = limited = 0
    for c, s, t in _cases(1000, seed=43, budget=12):
        u = 0
        for focus, context, store in iter_trace(c, s, 2000):  # a While focus is the next redex
            u += type(focus) is While and bval(focus.guard, store)
        if type(focus) is Skip and not context:
            want = (store, t - u) if u <= t else None
            finals += want is not None
            timeouts += want is None
        else:
            assert u > t, (c, s, t)
            want = None
            limited += 1
        assert cval(c, s, t) == want, (c, s, t)
        assert cval_guard(c, s, t) == want, (c, s, t)
    assert finals >= 800 and timeouts >= 10 and limited >= 50, (finals, timeouts, limited)


def test_fuel_validation():
    for fn in (cval, cval_guard, cval_tick):
        with pytest.raises(ValueError):
            fn(Skip(), S0, -3)


def test_fix_clock_in_live_path_is_identity():
    # spot-check the wrap changes nothing observable on real runs
    for c, s, t in _cases(200, seed=47):
        r = cval(c, s, t)
        assert fix_clock(t, r) == r


# --- all five evaluators ---


def _final_store(r):
    return r if isinstance(r, Store) else r[0]


def test_deep_seq_chains_run_on_the_explicit_stack():
    # Built directly: far deeper than native recursion could evaluate.
    n = 20_000
    left = right = BODY
    for _ in range(n - 1):
        left = Seq(left, BODY)
        right = Seq(BODY, right)
    loop = While(Less(V("x"), N(2 * n)), right)
    for name, fn in SEMANTICS.items():
        for c, want in ((left, n), (right, n), (loop, 2 * n)):
            r = fn(c, S0, 10**6)
            assert r is not None, name
            assert _final_store(r) == Store({"x": want}), name


def test_counting_loop_minimal_fuel_and_leftover():
    minimal = {
        "ev": lambda n: 2 * n + 2,
        "ev_min": lambda n: n,
        "cval": lambda n: n,
        "cval_guard": lambda n: n,
        "cval_tick": lambda n: 3 * n + 3,
    }
    for n in (0, 1, 2, 10, 100):
        prog = Seq(Set("x", N(0)), While(Less(V("x"), N(n)), BODY))
        want = Store({"x": n})
        for name, fn in SEMANTICS.items():
            least = minimal[name](n)
            if least > 0:
                assert fn(prog, S0, least - 1) is None, (name, n)
            for fuel in (least, least + 1, least + 7):
                r = fn(prog, S0, fuel)
                assert r is not None and _final_store(r) == want, (name, n, fuel)
                if name in ("cval", "cval_guard"):
                    assert r[1] == fuel - n
                elif name == "cval_tick":
                    assert r[1] == fuel - (3 * n + 3)


def test_argument_store_is_never_mutated():
    prog = parse_com("y := 0 ; z := x + 4 ; x := 0 ; WHILE x < 3 DO x := x + 1 OD")
    for name, fn in SEMANTICS.items():
        s = Store({"x": 3, "y": -1})
        outcomes = {fn(prog, s, t) is None for t in range(20)}
        assert outcomes == {True, False}, name  # both timeouts and successes ran
        assert s.to_dict() == {"x": 3, "y": -1}, name


def test_assigning_zero_leaves_a_normalized_store():
    runs = dict(SEMANTICS)
    runs["least_fuel(every_step)"] = lambda c, s, t: least_fuel(c, s, t, True)
    runs["least_fuel(unfolds)"] = lambda c, s, t: least_fuel(c, s, t, False)
    programs = {
        "x := 0": {},  # a bound name zeroed
        "y := 0": {"x": 3},  # an unbound name set to 0
        "x := 0 ; x := 2": {"x": 2},  # zeroed, then set again
    }
    for text, want in programs.items():
        for name, fn in runs.items():
            r = _final_store(fn(parse_com(text), Store({"x": 3}), 5))
            assert r == Store(want) and hash(r) == hash(Store(want)), (name, text)
            assert r.to_dict() == want, (name, text)
            assert 0 not in r._m.values(), (name, text)
