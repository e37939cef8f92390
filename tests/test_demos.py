"""Every narrated demo still runs against the package it demonstrates.

No other test imports the demos, so an API a demo uses could otherwise be
deleted unnoticed.  Each runs in a fresh interpreter with src/ on the path
and warnings turned into errors, as the in-process tests have them.  A demo
whose output is exact and deterministic has that output committed under
tests/expected/ and must print it byte for byte.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "tests" / "expected"


def test_demos_found():
    # an empty glob would parametrize test_demo_runs away silently
    assert DEMOS


def run_demo(demo: Path, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    assert run_demo(demo, tmp_path).strip()


def test_taylor_tables_demo_prints_its_committed_output(tmp_path):
    # statement(3) and statement(4) lines that neither the exact digest nor the
    # benchmark reference pins
    out = run_demo(ROOT / "demos" / "02_taylor_tables.py", tmp_path)
    assert out == (EXPECTED / "02_taylor_tables.txt").read_text()
