"""The benchmark's derive fault fails on the coefficient it changes.

perfbench/selftest.py proves the derive checks can fail by raising one h^2
law coefficient by 1 with dataclasses.replace.  If replace stopped working on
ModifiedPDE, the injected fault would raise instead, and the self-test would
still read `ok`, for the wrong reason.  This test makes the same injection,
runs it through the same runner and checks (loaded by path, as plain
modules), and requires each law verdict to name that coefficient.
"""
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import dgmodeq
from dgmodeq import exact
from dgmodeq.exact import UPWIND_TRACE, ModifiedPDE, StencilSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrong_laws(spec):
    """perfbench/selftest.py's derive fault: laws[0]'s h^2 coefficient plus 1."""
    laws = exact.moment_evolution_laws(spec)
    bad = laws[0].coeffs[:2] + (laws[0].coeffs[2] + 1,) + laws[0].coeffs[3:]
    return [dataclasses.replace(laws[0], coeffs=bad)] + laws[1:]


def test_the_fault_is_a_law():
    law = wrong_laws(StencilSpec(0, UPWIND_TRACE))[0]
    assert type(law) is ModifiedPDE
    assert law.coefficient(2) == exact.moment_evolution_laws(StencilSpec(0, UPWIND_TRACE))[0].coeffs[2] + 1


def test_derive_checks_report_the_wrong_coefficient(monkeypatch):
    check = _load("check")
    # workloads imports its sibling as a top-level module
    monkeypatch.setitem(sys.modules, "check", check)
    workloads = _load("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    fake = SimpleNamespace(
        exact=SimpleNamespace(
            moment_evolution_laws=wrong_laws,
            StencilSpec=StencilSpec,
            correction_series=exact.correction_series,
        ),
        taylor_statements=dgmodeq.taylor_statements,
    )
    inputs = workloads.SMOKE["derive"]
    verdicts, _ = workloads.run_derive(fake, inputs, reference)
    assert verdicts["laws 0/upwind-trace"] == ["a0 h^2: 19/24 != -5/24"]
    for key in inputs["orders"]:
        degree, mode = key.split("/")
        want = check.FROZEN_LAWS[(int(degree), mode, 0)][2]
        assert verdicts[f"laws {key}"] == [f"a0 h^2: {want + 1} != {want}"]
    assert verdicts["correction_series"] == [] and verdicts["taylor_statements"] == []
