"""Every narrated demo still runs against the package it demonstrates.

No other test imports the demos, so an API a demo uses could otherwise be
deleted unnoticed.  Each runs in a fresh interpreter with src/ on the path
and warnings turned into errors, as the in-process tests have them.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would parametrize test_demo_runs away silently
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
