"""Each demo script runs to completion against the library in this tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "extremal_families.py",
    "odds_rule_walkthrough.py",
    "oracle_crosscheck.py",
    "sharp_bounds_tour.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0_with_empty_stderr(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
