"""Semi-discrete modal updates for u_t + u_x = 0 with unit advection speed.

Two equivalent right-hand-side routes are kept deliberately separate so one
can check the other:

* rhs_weak assembles the weak form per test function by quadrature,
  boundary terms from a flux rule (upwind traces or an injected exact
  interface function fn(x));
* rhs_matrix applies the closed-form one-sided update matrices

      d a^j/dt = -(A a^j - B a^{j-1}) / dx

  whose entries are assembled exactly in Q[sqrt(3), sqrt(5)] and demoted to
  floats once, here.  update_matrices(k) is the scheme, the mesh.Stencil
  {0: -A, -1: +B} (fv.fv_stencil is the FV one); it gives symbol(), the
  per-wavenumber amplification generator, and drives the exact Fourier
  propagator (Integrator.propagate) of the convergence study.  rhs_weak
  never touches the stencil, so marching with it stays independent, and
  the exact laws of exact.modeq come from the same weak form (traces,
  volume matrix, mass) without reading A or B.

correction_term() gives the discrete curvature defect used by the
second-moment studies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import gauss_legendre_halfcell
from .exact import basis as _exact
from .field import DEFAULT_QUAD_NODES, ModalField
from .mesh import Stencil


@dataclass(frozen=True)
class Upwind:
    """Interface value taken from the left (upwind) cell's trace."""


@dataclass(frozen=True)
class ExactInterface:
    """Interface values sampled from a supplied function fn(x).

    This exists to realize the generic-flux evolution laws at a time
    instant; it is not a usable time-stepping closure (the sampled function
    does not follow the discrete solution).
    """

    fn: Callable[[np.ndarray], np.ndarray]


FluxRule = Upwind | ExactInterface


@lru_cache(maxsize=None)
def update_matrices(degree: int) -> Stencil:
    """The degree-0/1/2 update as a stencil per unit dx: {0: -A, -1: +B}."""
    exact_a, exact_b = _exact.update_matrices_exact(degree)
    a = np.array([[float(entry) for entry in row] for row in exact_a])
    b = np.array([[float(entry) for entry in row] for row in exact_b])
    return Stencil({0: -a, -1: b})


def rhs_matrix(field: ModalField) -> ModalField:
    """Closed-form semi-discrete derivative -(A a^j - B a^{j-1})/dx."""
    return update_matrices(field.degree).apply(field)


def rhs_weak(field: ModalField, flux: FluxRule) -> ModalField:
    """Weak-form semi-discrete derivative, quadrature route.

    For each test function phi_m:

        dx M_m d a_m/dt = -[u_R phi_m(1/2) - u_L phi_m(-1/2)]
                          + integral of u_h dphi_m/dxi over the cell

    with u_R, u_L the interface values chosen by the flux rule.
    """
    mesh = field.mesh
    basis = field.basis
    nodes, weights = gauss_legendre_halfcell(DEFAULT_QUAD_NODES)
    u_at_nodes = field.coeffs @ basis.values(nodes).T  # (N, n_quad)
    volume = (u_at_nodes * weights[None, :]) @ basis.derivatives(nodes)
    if isinstance(flux, Upwind):
        # One value per interior interface; wrapping the roll keeps the
        # row-0 sum telescoping to zero in exact arithmetic.
        u_right = field.traces_right()
        u_left = np.roll(u_right, 1)
    elif isinstance(flux, ExactInterface):
        # All n_cells+1 physical abscissae get sampled, 0 and 1 separately.
        values = np.asarray(flux.fn(mesh.interfaces), dtype=float)
        if values.shape != mesh.interfaces.shape:
            raise ValueError("interface function must return one value per abscissa")
        u_right = values[1:]
        u_left = values[:-1]
    else:
        raise TypeError(f"unknown flux rule {flux!r}")
    boundary = (
        u_right[:, None] * basis.trace_right[None, :]
        - u_left[:, None] * basis.trace_left[None, :]
    )
    deriv = (volume - boundary) / (mesh.dx * basis.mass[None, :])
    return field.with_data(deriv)


def symbol(theta: np.ndarray | float, degree: int) -> np.ndarray:
    """Wavenumber-domain generator G(theta) = -(A - B exp(-i theta)).

    One block of the circulant semi-discrete operator per unit dx; on a mesh
    with spacing dx the mode with phase shift theta per cell evolves with
    generator G(theta)/dx.  theta may be an array: the result has shape
    theta.shape + (m, m), one generator per sample.
    """
    return update_matrices(degree).symbol(theta)


def correction_term(
    u: Callable[[np.ndarray], np.ndarray],
    u_xx: Callable[[np.ndarray], np.ndarray],
    centers: np.ndarray,
    dx: float,
) -> np.ndarray:
    """Discrete curvature defect 2(U_+ + U_- - 2U)/dx^2 - u_xx/2.

    U_+- are exact point values at the cell edges.  For smooth u the defect
    is u'''' dx^2 / 96 + O(dx^4); odd orders vanish by symmetry.
    """
    centers = np.asarray(centers, dtype=float)
    plus = np.asarray(u(centers + 0.5 * dx), dtype=float)
    minus = np.asarray(u(centers - 0.5 * dx), dtype=float)
    mid = np.asarray(u(centers), dtype=float)
    return 2.0 * (plus + minus - 2.0 * mid) / dx**2 - np.asarray(u_xx(centers)) / 2.0
