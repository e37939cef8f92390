"""Piecewise-polynomial modal fields: projection and norms by basis.QUAD_NODES/QUAD_WEIGHTS."""
from __future__ import annotations

from collections import namedtuple
from typing import Callable

import numpy as np

from .basis import QUAD_NODES, QUAD_WEIGHTS, ModalBasis, modal_basis
from .exact.numbers import Frozen
from .mesh import Mesh1D, _readonly


class ModalField(Frozen):
    """Modal coefficients (n_cells, degree + 1) over a periodic mesh.

    The coefficient array is copied in C order and frozen at construction,
    and every operation returns a new field.  Fields compare and hash by
    identity; compare values with np.array_equal on .coeffs.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, mesh: Mesh1D, basis: ModalBasis, coeffs: np.ndarray) -> None:
        arr = np.array(coeffs, dtype=float, order="C")
        expected = (mesh.n_cells, basis.degree + 1)
        if arr.shape != expected:
            raise ValueError(f"coefficient shape {arr.shape} != {expected}")
        vars(self).update(mesh=mesh, basis=basis, coeffs=_readonly(arr))

    @property
    def data(self) -> np.ndarray:
        """State-vector view used by the time integrators."""
        return self.coeffs

    def with_data(self, arr: np.ndarray) -> ModalField:
        return ModalField(self.mesh, self.basis, arr)


def sample_cells(f: Callable[[np.ndarray], np.ndarray], mesh: Mesh1D) -> np.ndarray:
    """f at each cell's QUAD_NODES, shape (n_cells, n_quad); ValueError names a non-finite cell."""
    points = mesh.centers[:, None] + QUAD_NODES[None, :] * mesh.dx
    samples = np.broadcast_to(np.asarray(f(points), dtype=float), points.shape)
    if not np.all(np.isfinite(samples)):
        bad = np.argwhere(~np.isfinite(samples))[0]
        raise ValueError(f"function is not finite in cell {int(bad[0])}")
    return samples


def project(f: Callable[[np.ndarray], np.ndarray], mesh: Mesh1D, degree: int) -> ModalField:
    """L2 projection of f onto the broken polynomial space of given degree.

    a_m^j = (integral over cell j of f phi_m) / (integral phi_m^2), with the
    integrals done per cell by the 5-point rule QUAD_NODES, QUAD_WEIGHTS,
    reading the basis table ModalBasis.phi at those nodes.  Every field of a
    degree shares one basis (modal_basis).
    """
    basis = modal_basis(degree)
    coeffs = (sample_cells(f, mesh) * QUAD_WEIGHTS[None, :]) @ basis.phi / basis.mass[None, :]
    return ModalField(mesh, basis, coeffs)


#: L1, L2 and Linf distances.  A plain namedtuple: typing.NamedTuple would add
#: about 0.25 ms to the float route's import, which lands in a study's first call.
Norms = namedtuple("Norms", "l1 l2 linf")


def _norms(diff: Callable[[], np.ndarray], weights: np.ndarray, dx: float) -> Norms:
    """Norms of diff() (n_cells, n_points) by the per-cell rule weights; fv shares it.

    A finite but astronomically large state (late stage of an unstable run)
    may overflow to inf, in diff() or the sums; report inf rather than warn.
    """
    with np.errstate(over="ignore"):
        d = diff()
        l1 = float(np.sum(np.abs(d) @ weights) * dx)
        l2 = float(np.sqrt(np.sum((d * d) @ weights) * dx))
        linf = float(np.max(np.abs(d)))
    return Norms(l1, l2, linf)


def error_norms(field: ModalField, f_exact: Callable[[np.ndarray], np.ndarray]) -> Norms:
    """L1/L2/Linf distance between a field and a reference function.

    Uses the same per-cell rule as project and samples f_exact through
    sample_cells, so a reference that is not finite raises ValueError; Linf
    is the maximum over all quadrature nodes.
    """
    reference = sample_cells(f_exact, field.mesh)
    return _norms(lambda: field.coeffs @ field.basis.phi.T - reference, QUAD_WEIGHTS, field.mesh.dx)
