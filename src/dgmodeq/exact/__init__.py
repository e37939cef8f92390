"""Exact-arithmetic layer: quadratic-field numbers, derivative series, and
the modified-equation engine for the modal updates."""
from .numbers import ONE, QF, SQRT3, SQRT5, SQRT15, ZERO
from .series import DerivativeSeries
from .basis import (
    basis_polynomials,
    mass_diagonal,
    poly_eval,
    projection_moment,
    trace_vector,
    update_matrices_exact,
    volume_matrix,
    xi_moment,
)
from .modeq import (
    DEFAULT_ORDER,
    EXACT_POINT,
    MODES,
    UPWIND_TRACE,
    DerivationError,
    ModifiedPDE,
    StencilSpec,
    basis_moments,
    correction_series,
    modified_equation,
    moment_evolution_laws,
    moment_leading_scale,
)

__all__ = [
    "QF",
    "ZERO",
    "ONE",
    "SQRT3",
    "SQRT5",
    "SQRT15",
    "DerivativeSeries",
    "basis_polynomials",
    "mass_diagonal",
    "poly_eval",
    "projection_moment",
    "trace_vector",
    "update_matrices_exact",
    "volume_matrix",
    "xi_moment",
    "StencilSpec",
    "ModifiedPDE",
    "DerivationError",
    "UPWIND_TRACE",
    "EXACT_POINT",
    "MODES",
    "DEFAULT_ORDER",
    "basis_moments",
    "modified_equation",
    "moment_evolution_laws",
    "moment_leading_scale",
    "correction_series",
]
