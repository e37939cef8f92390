"""Finite-volume baselines: first-order upwind and unlimited second order.

These exist purely as convergence-rate references for the modal schemes.
Slopes for the second-order scheme come in the two classical flavors,

    central:  s_j = (ubar_{j+1} - ubar_{j-1}) / 2
    upwind:   s_j =  ubar_j - ubar_{j-1}

with the interface value u_{j+1/2} = ubar_j + s_j/2 and no limiter.

Each scheme is linear, so it is a mesh.Stencil of 1x1 blocks (fv_stencil),
the same kind of data as a DG scheme (dg.update_matrices); the rhs functions
apply it, and the convergence study propagates it exactly in Fourier space
(Integrator.propagate) instead of marching it.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import QUAD_WEIGHTS
from .exact.numbers import Frozen, checked_choice
from .field import Norms, _norms, sample_cells
from .mesh import Mesh1D, Stencil, _readonly

# d ubar_j/dt = -(u_{j+1/2} - u_{j-1/2})/dx expanded into weights of
# ubar_{j+o} per unit dx, keyed by offset o.
_FV_WEIGHTS = {
    "fv1": {0: -1.0, -1: 1.0},
    "fv2-central": {1: -0.25, 0: -0.75, -1: 1.25, -2: -0.25},
    "fv2-upwind": {0: -1.5, -1: 2.0, -2: -0.5},
}


class AverageField(Frozen):
    """Cell averages (n_cells,) over a periodic mesh, frozen at construction.

    Compares and hashes by identity; compare values by np.array_equal on .data.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, mesh: Mesh1D, data: np.ndarray) -> None:
        arr = np.array(data, dtype=float)
        if arr.shape != (mesh.n_cells,):
            raise ValueError(f"average shape {arr.shape} != ({mesh.n_cells},)")
        vars(self).update(mesh=mesh, data=_readonly(arr))

    def with_data(self, arr: np.ndarray) -> AverageField:
        return AverageField(self.mesh, arr)


def project_averages(f: Callable[[np.ndarray], np.ndarray], mesh: Mesh1D) -> AverageField:
    """Exact-to-quadrature cell averages of f."""
    return AverageField(mesh, sample_cells(f, mesh) @ QUAD_WEIGHTS)


@lru_cache(maxsize=None)
def fv_stencil(scheme: str) -> Stencil:
    """Stencil of 'fv1', 'fv2-central' or 'fv2-upwind'."""
    return Stencil(_FV_WEIGHTS[checked_choice(scheme, "scheme", tuple(_FV_WEIGHTS))])


def rhs_fv1(field: AverageField) -> AverageField:
    """First-order upwind: d ubar_j/dt = -(ubar_j - ubar_{j-1})/dx."""
    return fv_stencil("fv1").apply(field)


def rhs_fv2(field: AverageField, slope: str = "central") -> AverageField:
    """Unlimited second-order reconstruction with upwind interface flux."""
    return fv_stencil(f"fv2-{slope}").apply(field)


def average_error_norms(field: AverageField, f_exact: Callable[[np.ndarray], np.ndarray]) -> Norms:
    """Discrete norms of (averages - exact cell averages), by field's kernel with
    a one-point rule of weight 1 (exact, so the plain dx-weighted sums)."""
    exact = project_averages(f_exact, field.mesh)
    return _norms(lambda: (field.data - exact.data)[:, None], np.ones(1), field.mesh.dx)
