#!/usr/bin/env python3
"""Exhaustively confirm P9 on small programs and show its bound's margin.

Checks every oracle-terminated case of ``testkit.enumerate_coms(MAX_SIZE)``
from each of ``ENUM_STORES`` with the campaign's own ``p9_agreement``, and
prints the worst ratio of least sufficient fuel to ``search_bound`` for ev
and cval_tick.
Usage: PYTHONPATH=src confirm_search_bound.py [MAX_SIZE] (default 5).
"""

import sys
import time

from clockwork.clocked_env import least_fuel
from clockwork.clocked_state import cval_tick
from clockwork.imp import pretty, size
from clockwork.smallstep import StepLimit, run_oracle_stats
from clockwork.testkit import ENUM_STORES, enumerate_coms, p9_agreement, search_bound

ORACLE_CAP = 500


def _max_size(argv: list[str]) -> int:
    """MAX_SIZE read as the CLI reads a count: an ASCII decimal, at least 1."""
    if len(argv) < 2:
        return 5
    text = argv[1]
    if len(argv) > 2:
        problem = f"unexpected argument {argv[2]!r}"
    elif text.isascii() and text.isdigit() and int(text) >= 1:
        return int(text)
    else:
        problem = f"MAX_SIZE must be an ASCII decimal >= 1, got {text!r}"
    print(f"usage: confirm_search_bound.py [MAX_SIZE]: {problem}", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    max_size = _max_size(sys.argv)
    coms = enumerate_coms(max_size)
    print(f"programs of size <= {max_size}: {len(coms)}; stores: {len(ENUM_STORES)}")
    t0 = time.time()
    terminated = 0
    step_limited = 0
    worst = {"ev": 0.0, "cval_tick": 0.0}
    worst_case = {"ev": None, "cval_tick": None}
    failures = 0
    for i, c in enumerate(coms):
        for s in ENUM_STORES:
            outcome, while_steps = run_oracle_stats(c, s, ORACLE_CAP)
            if isinstance(outcome, StepLimit):
                step_limited += 1
                continue
            terminated += 1
            failed = p9_agreement(c, s, outcome, while_steps)
            if failed is not None:
                failures += 1
                print(f"FAIL {pretty(c)} from {s.to_dict()}: expected {failed[0]}; got {failed[1]}")
                continue
            n = outcome.steps
            bound = search_bound(n, size(c))
            # P9 found both within `bound`, so by fuel monotonicity both
            # succeed at it; ev's one-pass twin and cval_tick's spent
            # clock then give the exact least fuel.
            need = {"ev": least_fuel(c, s, bound, True)[1], "cval_tick": bound - cval_tick(c, s, bound)[1]}
            for sem in ("ev", "cval_tick"):
                ratio = need[sem] / bound
                if ratio > worst[sem]:
                    worst[sem] = ratio
                    worst_case[sem] = (pretty(c), s.to_dict(), n, need[sem], bound)
        if (i + 1) % 20000 == 0:
            print(f"  ... {i + 1}/{len(coms)} programs, {time.time() - t0:.0f}s")
    print(f"terminated cases: {terminated}, step-limited: {step_limited}, failures: {failures}")
    for sem in ("ev", "cval_tick"):
        print(f"worst {sem}: need/bound = {worst[sem]:.3f} at {worst_case[sem]}")
    print(f"elapsed: {time.time() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
