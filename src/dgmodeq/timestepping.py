"""Explicit SSP time integrators over field-like states.

A state only needs a read-only .data ndarray, a .with_data(array)
constructor and a .mesh (integrate and propagate size dt from it), so modal
fields, average fields and scalar test states all step through the same
code.  The right-hand side is a callable rhs(state, t) returning a state of
the same kind.

Two routes reach t_final on the same integer step schedule:

* integrate() marches step by step with any rhs; it is the reference;
* propagate() applies the fully discrete scheme of a linear periodic
  mesh.Stencil in Fourier space, mode by mode, in O(N log N + N log n)
  instead of O(N n).  For these linear problems it gives the marched
  solution up to rounding.  It also returns the per-mode matrices it
  applied, from which the convergence study judges the run's stability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, TypeVar

import numpy as np

from .mesh import Mesh1D, Stencil

#: Taylor coefficients of each method's stability polynomial R: one step of
#: y' = L y multiplies y by R(dt L).
STABILITY = {
    "euler": (1.0, 1.0),
    "ssprk2": (1.0, 1.0, 1.0 / 2.0),
    "ssprk3": (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0),
}
METHODS = tuple(STABILITY)


class FieldLike(Protocol):
    @property
    def data(self) -> np.ndarray: ...

    @property
    def mesh(self) -> Mesh1D: ...

    def with_data(self, arr: np.ndarray) -> "FieldLike": ...


S = TypeVar("S", bound=FieldLike)


@dataclass(frozen=True)
class Integrator:
    """Forward Euler or the optimal 2/3-stage SSP Runge-Kutta methods.

    Both integrate() and propagate() take schedule(dx) steps of dt = cfl*dx,
    shortening only the last one to land on t_final exactly.
    """

    method: str = "ssprk3"
    cfl: float = 0.1
    t_final: float = 1.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (math.isfinite(self.cfl) and self.cfl > 0.0):
            raise ValueError(f"cfl must be positive and finite, got {self.cfl}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")

    def schedule(self, dx: float) -> tuple[int, float, float]:
        """(n, dt, dt_last): step i starts at t = i*dt, the last one is shortened.

        n is the integer count ceil(t_final/dt), less a relative 1e-12 so
        rounding in t_final/dt never adds a sliver step.
        """
        dt = self.cfl * dx
        tiny = 1e-12 * max(1.0, self.t_final)
        n = max(0, math.ceil((self.t_final - tiny) / dt))
        return n, dt, self.t_final - max(n - 1, 0) * dt

    def step(self, state: S, rhs: Callable[[S, float], S], dt: float, t: float = 0.0) -> S:
        """One step of the chosen method from time t."""
        y = state.data
        k1 = rhs(state, t).data
        y1 = y + dt * k1
        if self.method == "euler":
            return state.with_data(y1)
        s1 = state.with_data(y1)
        k2 = rhs(s1, t + dt).data
        if self.method == "ssprk2":
            return state.with_data(0.5 * (y + y1 + dt * k2))
        # ssprk3, Shu-Osher convex form
        y2 = 0.75 * y + 0.25 * (y1 + dt * k2)
        s2 = state.with_data(y2)
        k3 = rhs(s2, t + 0.5 * dt).data
        return state.with_data(y / 3.0 + (2.0 / 3.0) * (y2 + dt * k3))

    def integrate(self, state: S, rhs: Callable[[S, float], S]) -> tuple[S, int]:
        """March to t_final; returns (final state, number of steps taken).

        Aborts with RuntimeError naming the step index if the state stops
        being finite (e.g. an unstable cfl).
        """
        n, dt, dt_last = self.schedule(_mesh_of(state).dx)
        # Overflow en route to the finiteness check below is expected for
        # unstable runs; the RuntimeError is the diagnostic, not the warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n):
                h = dt if i < n - 1 else dt_last
                state = self.step(state, rhs, h, i * dt)
                if not np.all(np.isfinite(state.data)):
                    raise _unstable(i + 1, i * dt + h)
        return state, n

    def propagate(self, state: S, stencil: Stencil) -> tuple[S, int, np.ndarray]:
        """Same result as integrate(state, stencil rhs), by Fourier modes.

        The rfft of the state along cells splits it into modes
        theta_k = 2 pi k / N, each multiplied by one small matrix:
        R(dt G_k/dx)^(n-1) R(dt_last G_k/dx), with G_k = stencil.symbol(theta_k)
        and R the method's stability polynomial.  Returns (final state, number
        of steps, amp), amp stacking those (N//2 + 1, m, m) matrices of modes
        k = 0..N//2; with no steps it is a single identity matrix.  Raises
        RuntimeError like integrate() when the result is not finite.
        """
        mesh = _mesh_of(state)
        n, dt, dt_last = self.schedule(mesh.dx)
        if n == 0:
            return state, 0, np.eye(stencil.size)[None]
        n_cells = mesh.n_cells
        g = stencil.symbol(2.0 * np.pi * np.arange(n_cells // 2 + 1) / n_cells) / mesh.dx
        with np.errstate(over="ignore", invalid="ignore"):
            amp = np.linalg.matrix_power(self._stability(dt * g), n - 1)
            amp = amp @ self._stability(dt_last * g)
            modes = np.fft.rfft(state.data.reshape(n_cells, stencil.size), axis=0)
            out = np.fft.irfft((amp @ modes[..., None])[..., 0], n=n_cells, axis=0)
        if not np.all(np.isfinite(out)):
            raise _unstable(n, self.t_final)
        return state.with_data(out.reshape(state.data.shape)), n, amp

    def _stability(self, z: np.ndarray) -> np.ndarray:
        """R(z) for a stack of square matrices z, by Horner's rule."""
        coeffs = STABILITY[self.method]
        eye = np.eye(z.shape[-1])
        r = coeffs[-1] * eye
        for c in coeffs[-2::-1]:
            r = r @ z + c * eye
        return r


def _mesh_of(state):
    mesh = getattr(state, "mesh", None)
    if mesh is None:
        raise ValueError("a state needs a mesh to size dt")
    return mesh


def _unstable(step: int, t: float) -> RuntimeError:
    return RuntimeError(
        f"non-finite state after step {step} (t = {t:.6g}); the run is unstable at this cfl"
    )
