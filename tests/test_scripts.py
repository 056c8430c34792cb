"""The scripts under scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _confirm_search_bound(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "confirm_search_bound.py"), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_confirm_search_bound_at_size_3():
    p = _confirm_search_bound("3")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert lines[:4] == [
        "programs of size <= 3: 594; stores: 3",
        "terminated cases: 1520, step-limited: 262, failures: 0",
        "worst ev: need/bound = 0.097 at ('WHILE x < 2 DO x := x + 1 OD', {'x': -1, 'y': 2}, 14, 7, 72)",
        "worst cval_tick: need/bound = 0.139 at ('WHILE x < 2 DO x := x + 1 OD', {'x': -1, 'y': 2}, 14, 10, 72)",
    ]
    assert len(lines) == 5 and lines[4].startswith("elapsed: ")


@pytest.mark.parametrize("max_size", ["x", "-1", "٣"])
def test_confirm_search_bound_takes_an_ascii_decimal_size(max_size):
    p = _confirm_search_bound(max_size)
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr == f"usage: confirm_search_bound.py [MAX_SIZE]: MAX_SIZE must be an ASCII decimal >= 1, got {max_size!r}\n"


def test_confirm_search_bound_takes_at_most_one_argument():
    p = _confirm_search_bound("1", "junk")
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr == "usage: confirm_search_bound.py [MAX_SIZE]: unexpected argument 'junk'\n"
