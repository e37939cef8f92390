"""Semi-discrete modal updates for u_t + u_x = 0 with unit advection speed.

Two equivalent right-hand-side routes are kept deliberately separate so one
can check the other:

* rhs_weak assembles the weak form per test function by quadrature,
  boundary terms from interface values (the upwind traces, or an exact
  interface function fn(x) sampled at every interface);
* rhs_matrix applies the closed-form one-sided update matrices

      d a^j/dt = -(A a^j - B a^{j-1}) / dx

  whose entries are the exact weak-form rows (exact.basis.weak_form_rows,
  in Q[sqrt(3), sqrt(5)]) closed with upwind traces, demoted to floats
  once, here.  update_matrices(k) is the scheme, the mesh.Stencil
  {0: -A, -1: +B} (fv.fv_stencil is the FV one); it gives symbol(), the
  per-wavenumber amplification generator, and drives the exact Fourier
  propagator (Integrator.propagate) of the convergence study.  The exact
  laws of exact.modeq read the same rows but never A or B.  rhs_weak
  touches neither the rows nor the stencil, so it stays an independent
  check of both.

correction_term() gives the discrete curvature defect used by the
second-moment studies.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import QUAD_WEIGHTS
from .exact import basis as _exact
from .field import ModalField
from .mesh import Stencil


@lru_cache(maxsize=None, typed=True)
def update_matrices(degree: int) -> Stencil:
    """The degree-0/1/2 update as a stencil per unit dx: {0: -A, -1: +B}."""
    exact_a, exact_b = _exact.update_matrices_exact(degree)
    return Stencil({0: -np.array(exact_a, dtype=float), -1: np.array(exact_b, dtype=float)})


def rhs_matrix(field: ModalField) -> ModalField:
    """Closed-form semi-discrete derivative -(A a^j - B a^{j-1})/dx."""
    return update_matrices(field.basis.degree).apply(field)


def rhs_weak(
    field: ModalField, interface: Callable[[np.ndarray], np.ndarray] | None = None
) -> ModalField:
    """Weak-form semi-discrete derivative, quadrature route.

    For each test function phi_m:

        dx M_m d a_m/dt = -[u_R phi_m(1/2) - u_L phi_m(-1/2)]
                          + integral of u_h dphi_m/dxi over the cell

    with u_R, u_L the interface values.  With interface=None they are the
    upwind traces, each cell's right-edge value.  A function interface(x)
    is sampled at all n_cells + 1 interface abscissae instead; that
    realizes the generic-flux evolution laws at a time instant, but it is
    not a usable time-stepping closure (the sampled function does not
    follow the discrete solution).

    Buffers: the weighted nodal values (n_cells, n_quad), freed once the
    volume term (n_cells, m) exists, then one (m, n_cells) array that holds
    the boundary term and becomes the derivative in place, plus the
    interface values and the returned field's copy.
    """
    mesh = field.mesh
    basis = field.basis
    u_at_nodes = field.coeffs @ basis.phi.T  # (N, n_quad)
    u_at_nodes *= QUAD_WEIGHTS
    volume = u_at_nodes @ basis.dphi
    del u_at_nodes
    if interface is None:
        # Entry j is the upwind value at interface j+1; wrapping the roll
        # keeps the row-0 sum telescoping to zero in exact arithmetic.
        u_right = field.coeffs @ basis.trace_right
        u_left = np.roll(u_right, 1)
    else:
        # All n_cells+1 physical abscissae get sampled, 0 and 1 separately.
        values = np.asarray(interface(mesh.interfaces), dtype=float)
        if values.shape != mesh.interfaces.shape:
            raise ValueError("interface function must return one value per abscissa")
        if not np.all(np.isfinite(values)):
            bad = float(mesh.interfaces[~np.isfinite(values)][0])
            raise ValueError(f"interface function is not finite at x = {bad!r}")
        u_right = values[1:]
        u_left = values[:-1]
    # Moment-major (m, N), so each elementwise pass runs along the cells;
    # the boundary term becomes the derivative in place.
    deriv = np.multiply.outer(basis.trace_right, u_right)
    for row, trace in zip(deriv, basis.trace_left):
        row -= trace * u_left
    np.subtract(volume.T, deriv, out=deriv)
    deriv /= (mesh.dx * basis.mass)[:, None]
    return field.with_data(deriv.T)


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
