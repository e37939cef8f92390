"""Exact-arithmetic layer: quadratic-field numbers, derivative series, the
modified-equation engine for the modal updates, and its frozen claims."""
from .numbers import QF
from .series import DerivativeSeries
from .basis import update_matrices_exact
from .modeq import (
    EXACT_POINT,
    MODES,
    UPWIND_TRACE,
    DerivationError,
    ModifiedPDE,
    StencilSpec,
    basis_moments,
    check_taylor,
    correction_series,
    modified_equation,
    moment_evolution_laws,
    moment_leading_scale,
    taylor_statements,
)

__all__ = [
    "QF",
    "DerivativeSeries",
    "update_matrices_exact",
    "StencilSpec",
    "ModifiedPDE",
    "DerivationError",
    "UPWIND_TRACE",
    "EXACT_POINT",
    "MODES",
    "basis_moments",
    "modified_equation",
    "moment_evolution_laws",
    "moment_leading_scale",
    "correction_series",
    "taylor_statements",
    "check_taylor",
]
