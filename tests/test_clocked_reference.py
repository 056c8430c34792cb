"""`ev_min`'s termination measure, checked at runtime by `reference_clocked`.

Every call that `ev_min`'s defining equations make must decrease the
lexicographic pair (clock, command size).  `ev_min_checked` checks that
pair on every call; these tests run it against `ev_min` and show that
the check can fail.
"""

import pytest

import reference_clocked
from reference_clocked import TerminationMeasureError, ev_min_checked

from clockwork.clocked_env import ev_min
from clockwork.imp import Skip, Store
from clockwork.parser import parse_com
from clockwork.testkit import case_stream
from clockwork.testkit import _gen_com, _gen_fuel, _gen_store  # test-scale generators

WORKED = parse_com("x := 0 ; WHILE x < 3 DO x := x + 1 OD")


def test_termination_witness_on_generated_programs():
    # the instrumented build must agree with ev_min and never trip its check
    for k in range(500):
        rng = case_stream(23, k)
        c, s, t = _gen_com(rng, 12), _gen_store(rng), _gen_fuel(rng)
        assert ev_min_checked(c, s, t) == ev_min(c, s, t)


def test_fuel_validation():
    with pytest.raises(ValueError):
        ev_min_checked(Skip(), Store(), -1)
    with pytest.raises(ValueError):
        ev_min_checked(Skip(), Store(), True)


def test_the_witness_rejects_a_measure_that_does_not_decrease(monkeypatch):
    assert ev_min_checked(WORKED, Store(), 5) == Store({"x": 3})
    # with every command the same size, the first call into a Seq keeps
    # the caller's clock and size, which the check must reject
    monkeypatch.setattr(reference_clocked, "size", lambda c: 0)
    with pytest.raises(TerminationMeasureError, match=r"call measure \(5, 0\) does not decrease below \(5, 0\)"):
        ev_min_checked(WORKED, Store(), 5)
