"""Floating-point view of the modal reference bases, plus the quadrature rule.

The mass diagonal and traces are demoted from the exact quadratic-field
definitions in dgmodeq.exact.basis at construction time, so rounding of
sqrt(3)/sqrt(5) entries happens exactly once.  The basis values and
xi-derivatives are tabulated once, at QUAD_NODES only, because the rule is
the one place the float route evaluates a basis.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exact import basis as _exact
from .exact.numbers import Frozen
from .mesh import _readonly

#: The float route's one quadrature rule, read-only: 5-point Gauss-Legendre on
#: [-1/2, 1/2], exact to degree 9, far past any product of degree <= 2 basis
#: functions.  Projection, error norms, cell averages and rhs_weak read it.
#: Keep these digits: the closed-form outer weights round 3 ulp higher.
QUAD_NODES = _readonly(np.array([-0.453089922969332, -0.26923465505284155, 0.0,
                                 0.26923465505284155, 0.453089922969332]))
QUAD_WEIGHTS = _readonly(np.array([0.1184634425280945, 0.23931433524968324, 0.28444444444444444,
                                   0.23931433524968324, 0.1184634425280945]))


class ModalBasis(Frozen):
    """Modal basis of a given degree on xi in [-1/2, 1/2].

    Degree 0 is {1}; degree 1 is {1, xi}; degree 2 is the orthonormal triple
    {1, 2 sqrt(3) xi, 6 sqrt(5) xi^2 - sqrt(5)/2}.  A basis is its degree;
    its read-only tables are the exact mass and traces demoted to floats, and
    the basis values and xi-derivatives at QUAD_NODES.
    """

    #: Diagonal of the reference mass matrix.
    mass: np.ndarray
    #: Basis values at xi = +1/2.
    trace_right: np.ndarray
    #: Basis values at xi = -1/2.
    trace_left: np.ndarray
    #: phi[q, m] = phi_m(QUAD_NODES[q]), shape (n_quad, degree + 1).
    phi: np.ndarray
    #: dphi[q, m] = d phi_m / d xi at QUAD_NODES[q], same shape.
    dphi: np.ndarray

    def __init__(self, degree: int) -> None:
        degree = _exact.check_degree(degree)
        polys = _exact.basis_polynomials(degree)
        coeff = np.array([p + (0,) * (degree + 1 - len(p)) for p in polys], dtype=float)
        # Scaling by 1 and 2 is exact: dcoeff is the demoted exact derivative.
        dcoeff = coeff[:, 1:] * np.arange(1, degree + 1)
        tables = {
            "mass": _exact.mass_diagonal(degree),
            "trace_right": _exact.trace_vector(degree, +1),
            "trace_left": _exact.trace_vector(degree, -1),
            "phi": (QUAD_NODES[:, None] ** np.arange(degree + 1)) @ coeff.T,
            "dphi": (QUAD_NODES[:, None] ** np.arange(degree)) @ dcoeff.T,
        }
        tables = {name: _readonly(np.array(t, dtype=float)) for name, t in tables.items()}
        vars(self).update(degree=degree, **tables)


@lru_cache(maxsize=None, typed=True)
def modal_basis(degree: int) -> ModalBasis:
    """The shared ModalBasis of a degree: built once per process, as its tables are read-only."""
    return ModalBasis(degree)
