"""The exact engine stays independent of the floating-point route.

Every module of dgmodeq.exact may import only the standard library and its
dgmodeq.exact siblings, so the exact laws can never silently pick up numpy
or the fast float path.  That check reads the source with ast; it imports
nothing.  The package's top level resolves its float names lazily, so
`import dgmodeq`, `dgmodeq.exact` and `dgmodeq taylor` load no numpy.  The
value types of both routes derive from exact.numbers.Frozen, which imports
dataclasses only when a caller asks for its protocol, so no route loads
dataclasses either.  The exact core computes in ints and imports fractions
(which loads decimal) only where it hands a Fraction out, so the imports and
the convergence, compare and spectrum studies load neither.  Those checks
run in fresh interpreters.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgmodeq
from dgmodeq.schemes import SCHEMES

PACKAGE = "dgmodeq.exact"
SRC = Path(__file__).resolve().parents[1] / "src"
EXACT_DIR = SRC / "dgmodeq" / "exact"
SIBLINGS = {path.stem for path in EXACT_DIR.glob("*.py")}


def imported_names(source: str) -> list[str]:
    """Absolute dotted name of everything a module imports.

    `from X import y` counts as X.y, so `from . import series` resolves to
    dgmodeq.exact.series and `from .. import dg` to dgmodeq.dg.
    """
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = PACKAGE.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


def allowed(name: str) -> bool:
    parts = name.split(".")
    if parts[0] in sys.stdlib_module_names:
        return True
    return ".".join(parts[:2]) == PACKAGE and len(parts) > 2 and parts[2] in SIBLINGS


@pytest.mark.parametrize("path", sorted(EXACT_DIR.glob("*.py")), ids=lambda p: p.name)
def test_exact_module_imports_only_stdlib_and_siblings(path):
    names = imported_names(path.read_text())
    assert names, "the module imports nothing; is the parse reading it?"
    assert [name for name in names if not allowed(name)] == []


@pytest.mark.parametrize("line", [
    "import numpy",
    "import numpy as np",
    "from numpy import array",
    "import gmpy2",
    "from dgmodeq import dg",
    "from dgmodeq.dg import update_matrices",
    "from .. import dg",
    "from ..dg import update_matrices",
    "from . import flux",
])
def test_foreign_import_is_caught(line):
    source = (EXACT_DIR / "numbers.py").read_text() + "\n" + line + "\n"
    assert not all(allowed(name) for name in imported_names(source))


def test_stdlib_and_sibling_imports_pass():
    source = (
        "from __future__ import annotations\n"
        "from fractions import Fraction\n"
        "from .numbers import QF\n"
        "from . import series\n"
        "from dgmodeq.exact import basis\n"
        "import dgmodeq.exact.modeq\n"
    )
    assert all(allowed(name) for name in imported_names(source))


def fresh(code: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter on this src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.splitlines()


@pytest.mark.parametrize("statement, tail", [
    ("import dgmodeq", []),
    ("import dgmodeq.exact", []),
    (
        "import dgmodeq.cli as c; print(c.main(['taylor', '--assert']))",
        ["PASS: exact evolution laws match their frozen values", "0"],
    ),
], ids=["dgmodeq", "exact", "taylor"])
def test_exact_route_loads_no_numpy(statement, tail):
    lines = fresh(f"import sys; {statement}; print(sorted({{'numpy', 'dataclasses'}} & set(sys.modules)))")
    assert lines[-len(tail) - 1 :] == [*tail, "[]"]


NO_FRACTIONS = "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"


@pytest.mark.parametrize("module", ["dgmodeq", "dgmodeq.exact", "dgmodeq.analysis"])
def test_import_loads_no_fractions(module):
    assert fresh(f"import sys, {module}; {NO_FRACTIONS}") == ["[]"]


def _cli_runs(*argvs: list[str]) -> str:
    """Code that runs each argv through cli.main with stdout muted and prints the return codes."""
    return (
        "import contextlib, io, sys\n"
        "import dgmodeq.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [c.main(argv) for argv in {list(argvs)!r}]\n"
        "print(codes)\n"
    )


def test_convergence_route_loads_no_fractions():
    # every scheme, with its check, then compare and spectrum, in one interpreter
    argvs = [["convergence", "--scheme", scheme, "--assert"] for scheme in SCHEMES]
    argvs += [["compare", "--assert"], ["spectrum", "--assert"]]
    assert fresh(_cli_runs(*argvs) + NO_FRACTIONS) == [str([0] * len(argvs)), "[]"]


def test_fraction_routes_still_pass():
    # taylor, residual and correction hand out Fractions, so they may load fractions
    argvs = [["taylor", "--assert"], ["residual", "--assert"], ["correction", "--assert"]]
    assert fresh(_cli_runs(*argvs)) == ["[0, 0, 0]"]


def test_exact_core_loads_fractions_only_at_the_boundary():
    code = (
        "import sys\n"
        "from dgmodeq.exact import QF, DerivativeSeries, basis_moments, update_matrices_exact\n"
        "x = QF(1, 2, 0, 3) / 4 * QF(0, 1)\n"
        "s = DerivativeSeries.unit(6).shift(-1)\n"
        "update_matrices_exact(2), basis_moments(2)\n"
        "hash(x), hash(QF(3) / 7), str(x), float(x), x == 3, repr(s), s.leading()\n"
        f"{NO_FRACTIONS}\n"
        f"print(type(x.b).__name__); {NO_FRACTIONS}\n"
    )
    assert fresh(code) == ["[]", "Fraction", "['decimal', 'fractions']"]


def test_float_route_loads_no_dataclasses():
    code = "import sys, dgmodeq.analysis; print('numpy' in sys.modules, 'dataclasses' in sys.modules)"
    assert fresh(code) == ["True False"]


def test_frozen_values_load_dataclasses_only_when_asked():
    code = (
        "import copy, pickle, sys\n"
        "from dgmodeq.exact import DerivativeSeries, StencilSpec, moment_evolution_laws\n"
        "spec = StencilSpec(1, 'exact-point')\n"
        "values = [spec, moment_evolution_laws(spec)[0], DerivativeSeries.unit(3)]\n"
        "same = [v == pickle.loads(pickle.dumps(copy.deepcopy(v))) for v in values]\n"
        "print(all(same), len(set(values)), repr(spec), 'dataclasses' in sys.modules)\n"
        "import dataclasses\n"
        "print([f.name for f in dataclasses.fields(spec)])"
    )
    assert fresh(code) == [
        "True 3 StencilSpec(degree=1, mode='exact-point', order=8) False",
        "['degree', 'mode', 'order']",
    ]


def test_float_name_loads_numpy_on_first_use():
    code = "import sys, dgmodeq; before = 'numpy' in sys.modules; dgmodeq.RunConfig"
    assert fresh(f"{code}; print(before, 'numpy' in sys.modules)") == ["False True"]


# Where each top-level name lives.
HOMES = {
    "exact": (
        "EXACT_POINT", "UPWIND_TRACE", "StencilSpec", "basis_moments", "correction_series",
        "moment_evolution_laws", "taylor_statements",
    ),
    "analysis": (
        "RunConfig", "check_convergence", "check_correction", "check_residual", "check_spectrum",
        "fitted_l2_orders", "run_compare", "run_convergence", "run_correction", "run_residual",
        "run_spectrum",
    ),
    "dg": ("rhs_weak", "symbol", "update_matrices"),
    "field": ("project",),
    "mesh": ("Mesh1D",),
    "timestepping": ("Integrator",),
}


def test_every_export_is_the_object_its_module_holds():
    homed = [name for names in HOMES.values() for name in names]
    assert sorted(dgmodeq.__all__) == sorted([*homed, "__version__"])
    # star-imported first, so each float name resolves through the lazy lookup
    code = (
        "import importlib\n"
        "names = {}\n"
        "exec('from dgmodeq import *', names)\n"
        f"print([n for m, ns in {HOMES!r}.items() for n in ns\n"
        "       if names[n] is not getattr(importlib.import_module(f'dgmodeq.{m}'), n)])"
    )
    assert fresh(code) == ["[]"]


def test_dir_lists_every_export_before_it_loads():
    code = "import dgmodeq; d = dir(dgmodeq); print('__all__' in d, set(dgmodeq.__all__) <= set(d))"
    assert fresh(code) == ["True True"]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dgmodeq.no_such_name
