"""Every name the benchmark's span tracer wraps still exists where it looks.

perfbench/spans.py patches package functions by (owner, attribute) at run
time, so a rename or removal in the package only shows up when someone runs
`perfbench/run.py --trace 1`.  This test loads that file by path and reads
its site tables; it never installs the tracer.
"""
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

# The tracer's two hand-written wrappers patch these outside the tables.
EXTRA_SITES = [
    ("timestepping.integrate", [("dgmodeq.timestepping:Integrator", "integrate")]),
    ("dg.rhs_matrix", [("dgmodeq.analysis", "rhs_matrix")]),
]

SITES = [
    pytest.param(owner, attr, id=f"{layer}:{owner}.{attr}")
    for layer, sites in spans.SPAN_SITES + spans.COUNT_SITES + EXTRA_SITES
    for owner, attr in sites
]


@pytest.mark.parametrize("owner, attr", SITES)
def test_trace_site_resolves_to_callable(owner, attr):
    resolved = spans._resolve(owner)
    assert callable(getattr(resolved, attr, None)), f"{owner} has no callable {attr!r}"
