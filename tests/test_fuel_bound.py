"""P9 on every small program: each command of ``enumerate_coms(4)``, from
each of ``ENUM_STORES``, passes the campaign's own check, ``p9_agreement``,
whenever the oracle terminates within 500 steps.  The same check runs at
size <= 5 in scripts/confirm_search_bound.py (0 failures).
"""

from clockwork.imp import pretty
from clockwork.smallstep import StepLimit, run_oracle_stats
from clockwork.testkit import ENUM_STORES, enumerate_coms, p9_agreement

ORACLE_CAP = 500


def test_search_bound_exhaustive_small_programs():
    terminated = 0
    for c in enumerate_coms(4):
        for s in ENUM_STORES:
            outcome, while_steps = run_oracle_stats(c, s, ORACLE_CAP)
            if isinstance(outcome, StepLimit):
                continue
            terminated += 1
            assert p9_agreement(c, s, outcome, while_steps) is None, (pretty(c), s.to_dict())
    assert terminated > 10000
