"""The scripts under scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_confirm_search_bound_at_size_3():
    p = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "confirm_search_bound.py"), "3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert lines[:4] == [
        "programs of size <= 3: 594; stores: 3",
        "terminated cases: 1520, step-limited: 262, failures: 0",
        "worst ev: need/bound = 0.097 at ('WHILE x < 2 DO x := x + 1 OD', {'x': -1, 'y': 2}, 14, 7, 72)",
        "worst cval_tick: need/bound = 0.139 at ('WHILE x < 2 DO x := x + 1 OD', {'x': -1, 'y': 2}, 14, 10, 72)",
    ]
    assert len(lines) == 5 and lines[4].startswith("elapsed: ")
