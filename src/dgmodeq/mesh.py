"""Uniform periodic mesh on [0, 1] and block-circulant operators over it.

Mesh1D, like every float value type, derives from Frozen, the frozen-value
rule that lives in exact.numbers and that the exact value types share;
_readonly freezes the float types' arrays.
"""
from __future__ import annotations

from functools import cached_property
from typing import Mapping

import numpy as np

from .exact.numbers import Frozen, checked_int


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Mesh1D(Frozen):
    """n_cells equal cells on the periodic unit interval.

    Cell j covers [j*dx, (j+1)*dx] with center (j + 1/2)*dx; interface i
    sits at i*dx.
    """

    def __init__(self, n_cells: int) -> None:
        vars(self).update(n_cells=checked_int(n_cells, "n_cells", 1))

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


class Stencil:
    """Periodic, constant-coefficient linear operator on a uniform mesh.

    blocks maps a cell offset o to an (m, m) block S_o per unit dx, and the
    operator is

        d a_j/dt = sum_o S_o a_{j+o} / dx

    for m unknowns per cell.  Every scheme in the package is one of these; its
    right-hand side apply() and its symbol() both read the one stack blocks.
    """

    def __init__(self, blocks: Mapping[int, np.ndarray | float]) -> None:
        if not blocks:
            raise ValueError("a stencil needs at least one offset block")
        blocks = {checked_int(o, "stencil offset"): np.atleast_2d(blocks[o]) for o in blocks}
        self.offsets = tuple(sorted(blocks))
        m = blocks[self.offsets[0]].shape[0]
        if not m:
            raise ValueError(f"stencil block at offset {self.offsets[0]} has no unknowns")
        for o in self.offsets:
            if blocks[o].shape != (m, m):
                raise ValueError(f"stencil block at offset {o} is {blocks[o].shape}, not ({m}, {m})")
            if np.iscomplexobj(blocks[o]) or not np.all(np.isfinite(blocks[o].astype(float))):
                raise ValueError(f"stencil block at offset {o} is not real and finite")
        self.blocks = _readonly(np.array([blocks[o] for o in self.offsets], dtype=float))

    def __reduce__(self) -> tuple:
        return Stencil, (dict(zip(self.offsets, self.blocks)),)

    @property
    def size(self) -> int:
        """Unknowns per cell."""
        return self.blocks.shape[-1]

    def apply(self, state):
        """Right-hand side of a state with .data (n_cells[, m]), .mesh, .with_data.

        Buffers: the sum out and one product buffer a @ S_o.T, both
        (n_cells, m).  The product buffer is reused for every offset and freed
        before with_data copies out; nothing is rolled.
        """
        n = state.mesh.n_cells
        a = state.data.reshape(n, self.size)
        out = np.zeros_like(a)
        term = np.empty_like(a)
        for o, block in zip(self.offsets, self.blocks):
            # Rows are independent, so row j of roll(a, -o) @ S_o.T is row
            # (j + o) mod n of a @ S_o.T: add it as two shifted slices.
            np.matmul(a, block.T, out=term)
            s = o % n
            out[: n - s] += term[s:]
            out[n - s :] += term[:s]
        del term
        out /= state.mesh.dx
        return state.with_data(out.reshape(state.data.shape))

    def symbol(self, theta: np.ndarray | float) -> np.ndarray:
        """G(theta) = sum_o S_o exp(i o theta); shape(theta) + (m, m).

        The Fourier mode a_j = v exp(i j theta) evolves as dv/dt = G(theta) v / dx.
        """
        theta = np.asarray(theta)
        phases = np.exp(theta[..., None] * (1j * np.array(self.offsets, dtype=float)))
        g = phases @ self.blocks.reshape(len(self.offsets), -1)
        return g.reshape(theta.shape + self.blocks.shape[1:])
