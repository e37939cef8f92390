"""Uniform periodic mesh on [0, 1] and block-circulant operators over it."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Mesh1D:
    """n_cells equal cells on the periodic unit interval.

    Cell j covers [j*dx, (j+1)*dx] with center (j + 1/2)*dx; interface i
    sits at i*dx.  Interface points belong to the left cell, matching the
    upwind trace convention.
    """

    n_cells: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, int) or self.n_cells < 1:
            raise ValueError(f"n_cells must be a positive integer, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @cached_property
    def centers(self) -> np.ndarray:
        return _readonly((np.arange(self.n_cells) + 0.5) / self.n_cells)

    @cached_property
    def interfaces(self) -> np.ndarray:
        """All n_cells + 1 interface abscissae, 0 and 1 both included."""
        return _readonly(np.arange(self.n_cells + 1) / self.n_cells)

    def locate(self, x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Owning cell, local coordinate, and interface flag for each point.

        Points within ~64 ulp of an interface are snapped to it, so
        abscissae computed as (j+1)*dx land exactly on interface j+1; an
        interface point is owned by its left cell (x=0 wraps to the last
        cell, whose right edge is x=1 periodically) and gets xi = +1/2.
        Other points get xi = (x - center)/dx in (-1/2, 1/2).
        """
        r = np.asarray(x, dtype=float) * self.n_cells
        nearest = np.rint(r)
        on_interface = np.abs(r - nearest) <= 64.0 * np.finfo(float).eps * np.maximum(
            1.0, np.abs(r)
        )
        r = np.where(on_interface, nearest, r)
        idx = (np.ceil(r).astype(int) - 1) % self.n_cells
        xi = np.where(on_interface, 0.5, r - np.floor(r) - 0.5)
        return idx, xi, on_interface

    def cell_of(self, x: np.ndarray | float) -> np.ndarray:
        """Owning cell index for each point, interfaces resolving left."""
        return self.locate(x)[0]


class Stencil:
    """Periodic, constant-coefficient linear operator on a uniform mesh.

    blocks maps a cell offset o to an (m, m) block S_o per unit dx, and the
    operator is

        d a_j/dt = sum_o S_o a_{j+o} / dx

    for m unknowns per cell.  Every scheme in the package is one of these;
    apply() is its right-hand side and symbol() its per-wavenumber generator.
    """

    def __init__(self, blocks: Mapping[int, np.ndarray | float]) -> None:
        self.offsets = tuple(sorted(blocks))
        stack = np.array([np.atleast_2d(blocks[o]) for o in self.offsets], dtype=float)
        self.blocks = _readonly(stack)
        # symbol() tables, complex up front so no call pays for the cast
        self._flat = stack.reshape(len(self.offsets), -1).astype(complex)
        self._phases = 1j * np.array(self.offsets, dtype=float)

    @property
    def size(self) -> int:
        """Unknowns per cell."""
        return self.blocks.shape[-1]

    def apply(self, state):
        """Right-hand side of a state with .data (n_cells[, m]), .mesh, .with_data."""
        a = state.data.reshape(state.mesh.n_cells, self.size)
        out = np.zeros_like(a)
        for o, block in zip(self.offsets, self.blocks):
            out += (np.roll(a, -o, axis=0) if o else a) @ block.T
        out /= state.mesh.dx
        return state.with_data(out.reshape(state.data.shape))

    def symbol(self, theta: np.ndarray | float) -> np.ndarray:
        """G(theta) = sum_o S_o exp(i o theta); shape(theta) + (m, m).

        The Fourier mode a_j = v exp(i j theta) evolves as dv/dt = G(theta) v / dx.
        """
        theta = np.asarray(theta)
        g = np.exp(theta[..., None] * self._phases) @ self._flat
        return g.reshape(theta.shape + self.blocks.shape[1:])
