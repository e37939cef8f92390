"""Tier-1 runs what CI runs.

Every `run:` step of every job in .github/workflows/tests.yml runs here as
CI runs it: under `bash -e`, from the repository root, with the job env plus
the step's env, and RUNNER_TEMP pointing at a fresh temporary directory.
Steps of a job with a Python version matrix run on the interpreter running
this suite.  Two steps are left out: the dependency install and the Tier-1
step, which is this suite.
The workflow is read by a small indentation parser, since CI installs no
YAML library.
"""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _scalar(text: str):
    # a flow sequence of quoted scalars, such as a version matrix, is JSON too
    if text.startswith(('"', '[')):
        return json.loads(text)
    if text.startswith("'"):
        return text[1:-1].replace("''", "'")
    return text or None


def _node(lines: list, i: int, indent: int):
    """The block sequence or mapping whose lines start at lines[i], at indent."""
    if lines[i][1].startswith("- "):
        items = []
        while i < len(lines) and lines[i][0] == indent and lines[i][1].startswith("- "):
            # the item's first key sits on the dash line, two columns in
            lines[i] = (indent + 2, lines[i][1][2:])
            item, i = _node(lines, i, indent + 2)
            items.append(item)
        return items, i
    mapping = {}
    while i < len(lines) and lines[i][0] == indent:
        key, sep, rest = lines[i][1].partition(":")
        if not sep:
            raise ValueError(f"expected 'key: value', got {lines[i][1]!r}")
        rest = rest.strip()
        i += 1
        if rest == "|":
            start = i
            while i < len(lines) and lines[i][0] > indent:
                i += 1
            base = lines[start][0]
            mapping[key] = "".join(" " * (ind - base) + text + "\n" for ind, text in lines[start:i])
        elif not rest and i < len(lines) and lines[i][0] > indent:
            mapping[key], i = _node(lines, i, lines[i][0])
        else:
            mapping[key] = _scalar(rest)
    return mapping, i


def parse_workflow(text: str) -> dict:
    """The block-style YAML subset a workflow file uses: mappings, sequences,
    plain and quoted scalars, flow sequences of quoted scalars, and `|`
    literal blocks without blank lines."""
    lines = [
        (len(line) - len(line.lstrip(" ")), line.strip())
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    tree, end = _node(lines, 0, 0)
    if end != len(lines):
        raise ValueError(f"unparsed line {lines[end][1]!r}")
    return tree


JOBS = parse_workflow(WORKFLOW.read_text())["jobs"]


def _runs_here(step: dict) -> bool:
    return "run" in step and not any(word in step["run"] for word in ("pip install", "pytest"))


#: Each step that runs here, with its env merged over its job's.
STEPS = [
    {**step, "env": {**job.get("env", {}), **step.get("env", {})}}
    for job in JOBS.values()
    for step in job["steps"]
    if _runs_here(step)
]


def test_workflow_parse():
    assert JOBS["tests"]["env"] == {"PYTHONPATH": "src"}
    skipped = [
        step["name"]
        for job in JOBS.values()
        for step in job["steps"]
        if "run" in step and not _runs_here(step)
    ]
    assert skipped == ["Install dependencies", "Tier-1 tests"]
    assert STEPS and all(step["name"] and step["run"].strip() for step in STEPS)
    # step names are the test ids below
    assert len({step["name"] for step in STEPS}) == len(STEPS)
    block = parse_workflow("a:\n  - b: |\n      x\n        y\n    c:\n      D: \"$T/e\"\n")
    assert block == {"a": [{"b": "x\n  y\n", "c": {"D": "$T/e"}}]}


def test_exact_route_job_spans_the_supported_pythons():
    # the requires-python floor and the newest release, neither with numpy installed
    job = JOBS["exact-route"]
    floor = re.search(r'requires-python = ">=([\d.]+)"', (ROOT / "pyproject.toml").read_text())
    assert job["strategy"]["matrix"]["python-version"] == [floor.group(1), "3.13"]
    assert job["env"] == {"PYTHONPATH": "src", "PYTHONWARNINGS": "error"}
    assert not any("install" in step.get("run", "") for step in job["steps"])


@pytest.mark.skipif(shutil.which("bash") is None, reason="CI runs the steps under bash")
@pytest.mark.parametrize("step", STEPS, ids=lambda step: step["name"])
def test_ci_step_passes(step, tmp_path):
    env = dict(os.environ, **step["env"], RUNNER_TEMP=str(tmp_path))
    # `python` and `python3` are the interpreter running this suite, as setup-python makes them
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    proc = subprocess.run(
        ["bash", "-e", "-c", step["run"]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    tail = f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
    assert proc.returncode == 0, f"{step['name']} exited {proc.returncode}\n{tail}"
