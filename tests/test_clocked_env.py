"""Defining-equation tests for the depth-bounded evaluators.

Each clause of ev and ev_min gets a direct test: the left-hand side is
evaluated through the public entry point and compared against a
hand-computed instance of the clause's right-hand side.
"""

import pytest

from clockwork.clocked_env import ev, ev_min, least_fuel
from clockwork.imp import Bc, If, Less, N, Plus, Seq, Set, Skip, Store, V, While, bval
from clockwork.parser import parse_com
from clockwork.testkit import case_stream
from clockwork.testkit import _VARS, _gen_com, _gen_fuel, _gen_store  # test-scale generators

S0 = Store()
S1 = Store({"x": 3, "y": -1})

BODY = Set("x", Plus(V("x"), N(1)))
LOOP = While(Less(V("x"), N(3)), BODY)


def _cases(n=60, seed=11, budget=8):
    for k in range(n):
        rng = case_stream(seed, k)
        yield _gen_com(rng, budget), _gen_store(rng), _gen_fuel(rng)


# --- ev: six clauses ---


def test_ev_clause_fuel_zero():
    for c in (Skip(), Set("x", N(1)), LOOP, Seq(Skip(), Skip())):
        assert ev(c, S1, 0) is None


def test_ev_clause_skip():
    for t in (1, 2, 64):
        assert ev(Skip(), S1, t) == S1


def test_ev_clause_set():
    assert ev(Set("x", N(7)), S1, 1) == S1.set("x", 7)
    assert ev(Set("y", Plus(V("x"), N(1))), S1, 5) == S1.set("y", 4)


def test_ev_clause_seq():
    for c1, s, t in _cases():
        c2 = Set("z", Plus(V("z"), N(2)))
        lhs = ev(Seq(c1, c2), s, t + 1)
        mid = ev(c1, s, t)
        rhs = None if mid is None else ev(c2, mid, t)
        assert lhs == rhs


def test_ev_clause_if():
    for c, s, t in _cases():
        guard = Less(V("x"), V("y"))
        other = Set("x", N(0))
        lhs = ev(If(guard, c, other), s, t + 1)
        chosen = c if bval(guard, s) else other
        assert lhs == ev(chosen, s, t)


def test_ev_clause_while():
    # true guard: one unfold with decremented fuel; false guard: the store
    for _, s, t in _cases():
        w = While(Bc(True), Skip())
        assert ev(w, s, t + 1) == ev(Seq(Skip(), w), s, t)
    assert ev(While(Bc(False), Skip()), S1, 1) == S1
    assert ev(While(Less(V("x"), N(0)), BODY), S1, 9) == S1


def test_ev_spec_examples():
    assert ev(Seq(Skip(), Skip()), S0, 1) is None
    assert ev(Seq(Skip(), Skip()), S0, 2) == S0


# --- ev_min: five clauses ---


def test_ev_min_clause_skip():
    assert ev_min(Skip(), S1, 0) == S1
    assert ev_min(Skip(), S1, 17) == S1


def test_ev_min_clause_set():
    assert ev_min(Set("x", N(2)), S1, 0) == S1.set("x", 2)


def test_ev_min_clause_seq():
    for c1, s, t in _cases():
        c2 = Set("y", N(5))
        lhs = ev_min(Seq(c1, c2), s, t)
        mid = ev_min(c1, s, t)
        rhs = None if mid is None else ev_min(c2, mid, t)
        assert lhs == rhs


def test_ev_min_clause_if():
    for c, s, t in _cases():
        guard = Less(N(0), V("x"))
        other = Skip()
        chosen = c if bval(guard, s) else other
        assert ev_min(If(guard, c, other), s, t) == ev_min(chosen, s, t)


def test_ev_min_clause_while():
    # false guard needs no fuel at all
    assert ev_min(While(Bc(False), Skip()), S0, 0) == S0
    # true guard at fuel 0 is a timeout
    assert ev_min(While(Bc(True), Skip()), S0, 0) is None
    # true guard otherwise unfolds with one tick spent
    for _, s, t in _cases():
        if t == 0:
            continue
        assert ev_min(LOOP, s, t) == (
            ev_min(Seq(BODY, LOOP), s, t - 1) if bval(LOOP.guard, s) else s
        )


def test_ev_min_spec_examples():
    assert ev_min(While(Bc(True), Skip()), S0, 3) is None  # three unfolds, guard still true


def test_worked_loop_under_both():
    prog = parse_com("x := 0 ; WHILE x < 3 DO x := x + 1 OD")
    want = Store({"x": 3})
    assert ev_min(prog, S0, 3) == want
    assert ev_min(prog, S0, 2) is None
    # ev needs depth, not length; find its edge and check stability above it
    results = [ev(prog, S0, t) for t in range(0, 12)]
    finals = [r for r in results if r is not None]
    assert finals and all(r == want for r in finals)
    # once successful, success persists
    first = next(i for i, r in enumerate(results) if r is not None)
    assert all(r is not None for r in results[first:])


def test_fuel_validation():
    for fn in (ev, ev_min):
        with pytest.raises(ValueError):
            fn(Skip(), S0, -1)
        with pytest.raises(ValueError):
            fn(Skip(), S0, True)


def test_determinism():
    for c, s, t in _cases(30):
        assert ev(c, s, t) == ev(c, s, t)
        assert ev_min(c, s, t) == ev_min(c, s, t)


# --- least_fuel: the measuring twin of ev and ev_min ---


def _bisect_least_fuel(fn, c, s, known_good):
    """The least fuel at which `fn` succeeds, by bisection below a known success.

    Sound because success is upward-closed in fuel (P6); least_fuel does
    not rely on that.
    """
    lo, hi = 0, known_good
    while lo < hi:
        mid = (lo + hi) // 2
        if fn(c, s, mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    return lo


TWINS = [(ev, True), (ev_min, False)]


@pytest.mark.parametrize("fn,every_step", TWINS)
def test_least_fuel_agrees_with_evaluator_and_bisection(fn, every_step):
    # each program ends in a counting loop of up to 16 rounds, longer than
    # the generator's, so ev_min often needs fuel
    seed, budget = 31, 14
    finals = fueled = timeouts = 0
    for k in range(3000):
        rng = case_stream(seed, k)
        c, s = _gen_com(rng, budget), _gen_store(rng)
        x, n = rng.choice(_VARS), rng.randint(0, 16)
        c = Seq(c, While(Less(V(x), N(n)), Set(x, Plus(V(x), N(1)))))
        for t in (_gen_fuel(rng), 600):
            want = fn(c, s, t)
            got = least_fuel(c, s, t, every_step)
            if want is None:
                assert got is None, (c, s, t)
                timeouts += 1
                continue
            store, fuel = got
            assert store == want, (c, s, t)
            assert fuel == _bisect_least_fuel(fn, c, s, t), (c, s, t)
            assert fn(c, s, fuel) == want
            assert fuel == 0 or fn(c, s, fuel - 1) is None
            finals += 1
            fueled += fuel > 0
    assert finals >= 4000 and fueled >= 1000 and timeouts >= 300, (finals, fueled, timeouts)


def test_least_fuel_without_and_with_a_check_at_the_root():
    # no check at all: ev_min on loop-free code needs no fuel
    assert least_fuel(Set("x", N(1)), S0, 5, False) == (Store({"x": 1}), 0)
    assert least_fuel(While(Bc(False), Skip()), S0, 0, False) == (S0, 0)
    # ev checks the root, so even SKIP needs 1
    assert least_fuel(Skip(), S0, 7, True) == (S0, 1)
    assert least_fuel(Skip(), S0, 0, True) is None


@pytest.mark.parametrize("fn,every_step", TWINS)
def test_least_fuel_on_the_worked_loop_and_a_divergent_one(fn, every_step):
    assert least_fuel(While(Bc(True), Skip()), S0, 50, every_step) is None
    prog = parse_com("x := 0 ; WHILE x < 3 DO x := x + 1 OD")
    store, fuel = least_fuel(prog, S0, 1000, every_step)
    assert store == Store({"x": 3}) == fn(prog, S0, fuel)
    assert fn(prog, S0, fuel - 1) is None


def test_least_fuel_on_the_counting_loop_closed_forms():
    # the shape of the benchmark's LOOP: ev needs 2n + 4, ev_min needs n
    n, m = 500, 200
    prog = parse_com(f"i := 0 ; WHILE i < {n} DO IF i < {m} THEN a := a + 1 ELSE b := b + 1 FI ; i := i + 1 OD")
    want = Store({"a": m, "b": n - m, "i": n})
    assert least_fuel(prog, S0, 10 * n, True) == (want, 2 * n + 4)
    assert least_fuel(prog, S0, 10 * n, False) == (want, n)


def test_least_fuel_validates_fuel_and_leaves_the_argument_store():
    for every_step in (True, False):
        with pytest.raises(ValueError):
            least_fuel(Skip(), S0, -1, every_step)
        with pytest.raises(ValueError):
            least_fuel(Skip(), S0, True, every_step)
        before = dict(S1._m)
        least_fuel(Set("x", N(0)), S1, 3, every_step)
        assert S1._m == before
