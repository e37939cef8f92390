"""Modal advection stencils and their exact modified equations.

The `exact` subpackage derives Taylor tables for the semi-discrete moment
evolution over the field of rationals extended by sqrt(3) and sqrt(5); the
floating-point modules run the matching schemes so that every derived
coefficient can be re-measured from the live operator.
"""
from .analysis import (
    SCHEMES,
    RunConfig,
    check_convergence,
    check_correction,
    check_residual,
    check_spectrum,
    exact_solution,
    fitted_l2_orders,
    initial_condition,
    run_compare,
    run_convergence,
    run_correction,
    run_residual,
    run_spectrum,
)
from .basis import ModalBasis
from .dg import (
    correction_term,
    rhs_matrix,
    rhs_weak,
    symbol,
    update_matrices,
)
from .exact import (
    EXACT_POINT,
    UPWIND_TRACE,
    QF,
    StencilSpec,
    basis_moments,
    correction_series,
    moment_evolution_laws,
    taylor_statements,
    update_matrices_exact,
)
from .field import ModalField, error_norms, project
from .fv import (
    AverageField,
    average_error_norms,
    fv_stencil,
    project_averages,
    rhs_fv1,
    rhs_fv2,
)
from .mesh import Mesh1D, Stencil
from .timestepping import Integrator

__version__ = "0.1.0"

__all__ = [
    "EXACT_POINT",
    "SCHEMES",
    "UPWIND_TRACE",
    "AverageField",
    "Integrator",
    "Mesh1D",
    "ModalBasis",
    "ModalField",
    "QF",
    "RunConfig",
    "Stencil",
    "StencilSpec",
    "average_error_norms",
    "basis_moments",
    "check_convergence",
    "check_correction",
    "check_residual",
    "check_spectrum",
    "correction_series",
    "correction_term",
    "error_norms",
    "exact_solution",
    "fitted_l2_orders",
    "fv_stencil",
    "initial_condition",
    "moment_evolution_laws",
    "project",
    "project_averages",
    "rhs_fv1",
    "rhs_fv2",
    "rhs_matrix",
    "rhs_weak",
    "run_compare",
    "run_convergence",
    "run_correction",
    "run_residual",
    "run_spectrum",
    "symbol",
    "taylor_statements",
    "update_matrices",
    "update_matrices_exact",
    "__version__",
]
