"""Quick property campaigns: every id at reduced scale.

The acceptance module runs the full-scale campaigns; these give fast
feedback during development and pin the campaign driver's behavior.
"""

import pytest

from clockwork.testkit import PROPERTY_IDS, GenConfig, run_property

CFG = GenConfig(seed=42)


@pytest.mark.parametrize("pid", [p for p in PROPERTY_IDS if p not in ("P9", "P10")])
def test_property_quick(pid):
    report = run_property(pid, CFG, 300)
    assert report.passed, report.to_json_dict()["failures"][:1]
    assert report.cases_run == 300


@pytest.mark.parametrize("pid", ["P9", "P10"])
def test_oracle_property_quick(pid):
    report = run_property(pid, CFG, 100)
    assert report.passed, report.to_json_dict()["failures"][:1]


def test_campaigns_deterministic():
    a = run_property("P1", GenConfig(seed=5), 100)
    b = run_property("P1", GenConfig(seed=5), 100)
    assert a.to_json_dict()["failures"] == b.to_json_dict()["failures"]
    assert (a.cases_run, a.skipped) == (b.cases_run, b.skipped)


def test_different_seeds_generate_different_cases():
    from clockwork.testkit import _gen_case, case_stream

    a, _ = _gen_case("P1", case_stream(1, 0))
    b, _ = _gen_case("P1", case_stream(2, 0))
    assert a != b
