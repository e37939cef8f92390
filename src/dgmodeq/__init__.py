"""Modal advection stencils and their exact modified equations.

The `exact` subpackage derives Taylor tables for the semi-discrete moment
evolution over the field of rationals extended by sqrt(3) and sqrt(5); the
floating-point modules run the matching schemes so that every derived
coefficient can be re-measured from the live operator.

Only the exact names load with the package.  A float name imports its
module, and so numpy, on first use (PEP 562), so `import dgmodeq` and the
exact route never load numpy.
"""
from .exact import (
    EXACT_POINT,
    UPWIND_TRACE,
    StencilSpec,
    basis_moments,
    correction_series,
    moment_evolution_laws,
    taylor_statements,
)

__version__ = "0.1.0"

#: The float route's exported names, by the module that holds each.
_FLOAT_NAMES = {
    "analysis": (
        "RunConfig",
        "check_convergence",
        "check_correction",
        "check_residual",
        "check_spectrum",
        "fitted_l2_orders",
        "run_compare",
        "run_convergence",
        "run_correction",
        "run_residual",
        "run_spectrum",
    ),
    "dg": ("rhs_weak", "symbol", "update_matrices"),
    "field": ("project",),
    "mesh": ("Mesh1D",),
    "timestepping": ("Integrator",),
}
_MODULE_OF = {name: module for module, names in _FLOAT_NAMES.items() for name in names}


def __getattr__(name: str):
    """Import a float name's module on first use and keep the name in the package."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


__all__ = [
    "EXACT_POINT",
    "UPWIND_TRACE",
    "StencilSpec",
    "basis_moments",
    "correction_series",
    "moment_evolution_laws",
    "taylor_statements",
    *_MODULE_OF,
    "__version__",
]
