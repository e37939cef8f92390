"""Semi-discrete modal updates for u_t + u_x = 0 with unit advection speed.

Two equivalent right-hand-side routes are kept deliberately separate so one
can check the other:

* rhs_weak assembles the weak form per test function by quadrature,
  boundary terms from a flux rule (upwind traces or an injected exact
  interface function);
* rhs_matrix applies the closed-form one-sided update matrices

      d a^j/dt = -(A a^j - B a^{j-1}) / dx

  whose entries are assembled exactly in Q[sqrt(3), sqrt(5)] and demoted to
  floats once, here.  As a mesh.Stencil this is {0: -A, -1: +B}; the same
  stencil gives symbol(), the per-wavenumber amplification generator, and
  drives the exact Fourier propagator (Integrator.propagate) that the
  convergence study uses.  rhs_weak never touches the stencil, so marching
  with it stays an independent reference.

correction_term() gives the discrete curvature defect used by the
second-moment studies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .basis import gauss_legendre_halfcell
from .exact import basis as _exact
from .exact.numbers import QF
from .field import DEFAULT_QUAD_NODES, ModalField
from .mesh import Stencil


@dataclass(frozen=True)
class Upwind:
    """Interface value taken from the left (upwind) cell's trace."""


@dataclass(frozen=True)
class ExactInterface:
    """Interface values sampled from a supplied function fn(x, t).

    This exists to realize the generic-flux evolution laws at a time
    instant; it is not a usable time-stepping closure (the sampled function
    does not follow the discrete solution).
    """

    fn: Callable[[np.ndarray, float], np.ndarray]


FluxRule = Upwind | ExactInterface


@dataclass(frozen=True)
class UpdateMatrices:
    """Exact one-sided update matrices and their single float demotion."""

    degree: int
    a_exact: tuple[tuple[QF, ...], ...]
    b_exact: tuple[tuple[QF, ...], ...]
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.a, self.b):
            arr.flags.writeable = False

    @cached_property
    def stencil(self) -> Stencil:
        """The update as blocks per unit dx: {0: -A, -1: +B}."""
        return Stencil({0: -self.a, -1: self.b})


@lru_cache(maxsize=None)
def update_matrices(degree: int) -> UpdateMatrices:
    """Assembled update matrices for a degree-0/1/2 basis."""
    a_exact, b_exact = _exact.update_matrices_exact(degree)
    a = np.array([[float(entry) for entry in row] for row in a_exact])
    b = np.array([[float(entry) for entry in row] for row in b_exact])
    return UpdateMatrices(degree=degree, a_exact=a_exact, b_exact=b_exact, a=a, b=b)


def rhs_matrix(field: ModalField, matrices: UpdateMatrices | None = None) -> ModalField:
    """Closed-form semi-discrete derivative -(A a^j - B a^{j-1})/dx."""
    if matrices is None:
        matrices = update_matrices(field.degree)
    if matrices.degree != field.degree:
        raise ValueError(
            f"matrices are degree {matrices.degree}, field is degree {field.degree}"
        )
    return matrices.stencil.apply(field)


def rhs_weak(
    field: ModalField,
    flux: FluxRule,
    t: float = 0.0,
    n_quad: int = DEFAULT_QUAD_NODES,
) -> ModalField:
    """Weak-form semi-discrete derivative, quadrature route.

    For each test function phi_m:

        dx M_m d a_m/dt = -[u_R phi_m(1/2) - u_L phi_m(-1/2)]
                          + integral of u_h dphi_m/dxi over the cell

    with u_R, u_L the interface values chosen by the flux rule.
    """
    mesh = field.mesh
    basis = field.basis
    nodes, weights = gauss_legendre_halfcell(n_quad)
    u_at_nodes = field.coeffs @ basis.values(nodes).T  # (N, n_quad)
    volume = (u_at_nodes * weights[None, :]) @ basis.derivatives(nodes)
    if isinstance(flux, Upwind):
        # One value per interior interface; wrapping the roll keeps the
        # row-0 sum telescoping to zero in exact arithmetic.
        u_right = field.traces_right()
        u_left = np.roll(u_right, 1)
    elif isinstance(flux, ExactInterface):
        # All n_cells+1 physical abscissae get sampled, 0 and 1 separately.
        values = np.asarray(flux.fn(mesh.interfaces, t), dtype=float)
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


def symbol(theta: float, degree: int) -> np.ndarray:
    """Wavenumber-domain generator G(theta) = -(A - B exp(-i theta)).

    One block of the circulant semi-discrete operator per unit dx; on a mesh
    with spacing dx the mode with phase shift theta per cell evolves with
    generator G(theta)/dx.
    """
    return update_matrices(degree).stencil.symbol(theta)


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
