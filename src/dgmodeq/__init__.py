"""Modal advection stencils and their exact modified equations.

The `exact` subpackage derives Taylor tables for the semi-discrete moment
evolution over the field of rationals extended by sqrt(3) and sqrt(5); the
floating-point modules run the matching schemes so that every derived
coefficient can be re-measured from the live operator.
"""
from .analysis import (
    RunConfig,
    check_convergence,
    check_correction,
    check_residual,
    check_spectrum,
    fitted_l2_orders,
    run_compare,
    run_convergence,
    run_correction,
    run_residual,
    run_spectrum,
)
from .dg import rhs_weak, symbol, update_matrices
from .exact import (
    EXACT_POINT,
    UPWIND_TRACE,
    StencilSpec,
    basis_moments,
    correction_series,
    moment_evolution_laws,
    taylor_statements,
)
from .field import project
from .mesh import Mesh1D
from .timestepping import Integrator

__version__ = "0.1.0"

__all__ = [
    "EXACT_POINT",
    "UPWIND_TRACE",
    "Integrator",
    "Mesh1D",
    "RunConfig",
    "StencilSpec",
    "basis_moments",
    "check_convergence",
    "check_correction",
    "check_residual",
    "check_spectrum",
    "correction_series",
    "fitted_l2_orders",
    "moment_evolution_laws",
    "project",
    "rhs_weak",
    "run_compare",
    "run_convergence",
    "run_correction",
    "run_residual",
    "run_spectrum",
    "symbol",
    "taylor_statements",
    "update_matrices",
    "__version__",
]
