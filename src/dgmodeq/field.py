"""Piecewise-polynomial modal fields: projection, norms."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import ModalBasis, gauss_legendre_halfcell
from .mesh import Mesh1D

#: Single quadrature rule used for projection and error norms alike.
#: Five Gauss-Legendre nodes integrate degree <= 9 exactly, far past any
#: product of degree <= 2 basis functions.
DEFAULT_QUAD_NODES = 5


@dataclass(frozen=True)
class ModalField:
    """Modal coefficients (n_cells, degree + 1) over a periodic mesh.

    The coefficient array is copied and frozen at construction; fields are
    value objects and every operation returns a new one.
    """

    mesh: Mesh1D
    basis: ModalBasis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=float)
        expected = (self.mesh.n_cells, self.basis.degree + 1)
        if arr.shape != expected:
            raise ValueError(f"coefficient shape {arr.shape} != {expected}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __reduce__(self) -> tuple:
        # rebuilt by the constructor, so copies keep their arrays read-only
        return ModalField, (self.mesh, self.basis, self.coeffs)

    @property
    def degree(self) -> int:
        return self.basis.degree

    @property
    def data(self) -> np.ndarray:
        """State-vector view used by the time integrators."""
        return self.coeffs

    def with_data(self, arr: np.ndarray) -> ModalField:
        return ModalField(self.mesh, self.basis, arr)


def quadrature_points(mesh: Mesh1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference nodes, weights, and the (n_cells, n_quad) abscissae of every cell."""
    nodes, weights = gauss_legendre_halfcell(DEFAULT_QUAD_NODES)
    return nodes, weights, mesh.centers[:, None] + nodes[None, :] * mesh.dx


def sample_cells(
    f: Callable[[np.ndarray], np.ndarray], mesh: Mesh1D
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference nodes, weights, and f at every cell's quadrature points.

    Raises ValueError naming the first cell where f is not finite.
    """
    nodes, weights, points = quadrature_points(mesh)
    samples = np.broadcast_to(np.asarray(f(points), dtype=float), points.shape)
    if not np.all(np.isfinite(samples)):
        bad = np.argwhere(~np.isfinite(samples))[0]
        raise ValueError(f"initial data is not finite in cell {int(bad[0])}")
    return nodes, weights, samples


def project(f: Callable[[np.ndarray], np.ndarray], mesh: Mesh1D, degree: int) -> ModalField:
    """L2 projection of f onto the broken polynomial space of given degree.

    a_m^j = (integral over cell j of f phi_m) / (integral phi_m^2), with the
    integrals done per cell by the DEFAULT_QUAD_NODES-point Gauss-Legendre rule.
    """
    basis = ModalBasis(degree)
    nodes, weights, samples = sample_cells(f, mesh)
    phi = basis.values(nodes)  # (n_quad, degree + 1)
    coeffs = (samples * weights[None, :]) @ phi / basis.mass[None, :]
    return ModalField(mesh, basis, coeffs)


class Norms(NamedTuple):
    l1: float
    l2: float
    linf: float


def error_norms(field: ModalField, f_exact: Callable[[np.ndarray], np.ndarray]) -> Norms:
    """L1/L2/Linf distance between a field and a reference function.

    Uses the same per-cell Gauss-Legendre rule as project; Linf is the
    maximum over all quadrature nodes.
    """
    nodes, weights, points = quadrature_points(field.mesh)
    phi = field.basis.values(nodes)
    dx = field.mesh.dx
    # A finite but astronomically large field (late stage of an unstable
    # run) may overflow to inf here; report inf rather than warn.
    with np.errstate(over="ignore"):
        diff = field.coeffs @ phi.T - np.asarray(f_exact(points), dtype=float)
        l1 = float(np.sum(np.abs(diff) @ weights) * dx)
        l2 = float(np.sqrt(np.sum((diff * diff) @ weights) * dx))
        linf = float(np.max(np.abs(diff)))
    return Norms(l1, l2, linf)
