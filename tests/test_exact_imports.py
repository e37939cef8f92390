"""The exact engine stays independent of the floating-point route.

Every module of dgmodeq.exact may import only the standard library and its
dgmodeq.exact siblings, so the exact laws can never silently pick up numpy
or the fast float path.  The check reads the source with ast; it imports
nothing.
"""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = "dgmodeq.exact"
EXACT_DIR = Path(__file__).resolve().parents[1] / "src" / "dgmodeq" / "exact"
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
