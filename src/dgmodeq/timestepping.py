"""Explicit SSP time integrators over field-like states.

A state only needs a read-only .data ndarray, a .with_data(array)
constructor and a .mesh (integrate and propagate size dt from it), so modal
fields, average fields and scalar test states all step through the same
code.  The equation is autonomous and linear, so a scheme is one
mesh.Stencil, and both routes take it.

Two routes reach t_final on the same integer step schedule:

* integrate() marches step by step with the stencil's apply(), through the
  method's table of Shu-Osher stages (STAGES); it is the reference;
* propagate() applies the fully discrete scheme of a linear periodic
  mesh.Stencil in Fourier space, mode by mode, in O(N log N + N log n)
  instead of O(N n).  It does not read the stages: each method is an
  explicit s-stage method of order s, so its stability polynomial is
  R(z) = sum_{q <= s} z^q / q!, and the two routes check each other.  It
  powers all modes' one-step matrices R, kept in one mode-last
  (m, m, N//2 + 1) stack, as their increments E = R - I, so its rounding
  error does not grow with n.  Marching rounds about eps into every step,
  a floor of about n eps that dominates at tiny cfl; there propagate() is
  the more accurate route; on the default ladders the two agree to about
  1e-13 relative.  It also returns the per-mode matrices it applied, from
  which the convergence study judges the run's stability.
"""
from __future__ import annotations

import math

import numpy as np

from .exact.numbers import Frozen, check_finite, checked_choice
from .mesh import Stencil
from .schemes import METHODS, STAGES

#: Longest schedule counted: at 1e13 steps the count's slack is 0.02 step.
MAX_STEPS = 1e13


class Integrator(Frozen):
    """Forward Euler or the optimal 2/3-stage SSP Runge-Kutta methods.

    Both integrate() and propagate() take schedule(dx) steps of dt = cfl*dx,
    shortening only the last one to land on t_final exactly.
    """

    def __init__(self, method: str = "ssprk3", cfl: float = 0.1, t_final: float = 1.0) -> None:
        method = checked_choice(method, "method", METHODS)
        check_finite(cfl, "cfl")
        check_finite(t_final, "t_final", zero_ok=True)
        vars(self).update(method=method, cfl=cfl, t_final=t_final)

    def schedule(self, dx: float) -> tuple[int, float, float]:
        """(n, dt, dt_last): step i starts at t = i*dt, the last one is shortened.

        n is ceil(q) for q = t_final/dt, less a slack of 1e-9 step plus the
        rounding of q, so rounding never adds a sliver step; but a positive
        horizon always takes at least one step, however small q is.  A q
        above MAX_STEPS raises ValueError; past 2**52 a double cannot count
        steps.
        """
        dt = self.cfl * dx
        q = self.t_final / dt
        if not q <= MAX_STEPS:
            raise ValueError(f"t_final/dt = {q:.3g} steps exceeds the limit of {MAX_STEPS:g}")
        n = max(int(q > 0), math.ceil(q - (1e-9 + 8.0 * math.ulp(1.0) * q)))
        return n, dt, self.t_final - max(n - 1, 0) * dt

    def step(self, state, stencil: Stencil, dt: float):
        """One step: one stencil.apply per row of STAGES[method]."""
        y, stage = state.data, state
        for a, b in STAGES[self.method]:
            stage = state.with_data(a * y + b * (stage.data + dt * stencil.apply(stage).data))
        return stage

    def integrate(self, state, stencil: Stencil) -> tuple:
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
                state = self.step(state, stencil, h)
                if not np.all(np.isfinite(state.data)):
                    raise _unstable(i + 1, i * dt + h)
        return state, n

    def propagate(self, state, stencil: Stencil) -> tuple:
        """Same result as integrate(state, stencil), by Fourier modes.

        The rfft of the state along cells splits it into modes
        theta_k = 2 pi k / N, each multiplied by one small matrix:
        R(dt G_k/dx)^(n-1) R(dt_last G_k/dx), with G_k = stencil.symbol(theta_k)
        and R(z) = sum_{q <= s} z^q / q! for the method's s stages.  Each
        product is carried as its increment E = R - I (see _increment): a
        squaring is 2E + E^2 and a product E_a + E_b + E_a E_b.  A step's
        increment is O(dt |G_k|), so adding it to I before powering would
        round away about eps per step; here no rounding of size eps |I|
        enters, and each mode v is updated as v + E v.  All modes share one
        mode-last (m, m, N//2 + 1) stack, multiplied elementwise over the
        modes (see _product) for every m.

        Returns (final state, number of steps, amp), amp = I + E stacking
        the (N//2 + 1, m, m) complex matrices of modes k = 0..N//2; with no
        steps it is a single identity matrix.  Raises RuntimeError like
        integrate() when the result is not finite.
        """
        mesh = _mesh_of(state)
        n, dt, dt_last = self.schedule(mesh.dx)
        m = stencil.size
        if n == 0:
            return state, 0, np.eye(m)[None]
        n_cells = mesh.n_cells
        g = stencil.symbol(2.0 * np.pi * np.arange(n_cells // 2 + 1) / n_cells) / mesh.dx
        g *= dt
        z = np.moveaxis(g, 0, -1).copy()
        del g
        coeffs = [1.0 / math.factorial(q) for q in range(len(STAGES[self.method]) + 1)]
        s = dt_last / dt
        with np.errstate(over="ignore", invalid="ignore"):
            e = _increment(z, coeffs)
            # Every factor is a polynomial in the same z, so they commute.
            # Starting acc from the short last step after e lets z go before
            # the power loop, which holds four (m, m, N//2 + 1) stacks: e,
            # acc and _product's out and tmp.
            acc = _increment(z, [c * s**q for q, c in enumerate(coeffs)])
            del z
            buf, tmp = np.empty_like(e), np.empty_like(e)
            p = n - 1
            while p:
                if p & 1:  # R_acc <- R_e R_acc
                    _product(e, acc, buf, tmp)
                    acc += e
                    acc += buf
                p >>= 1
                if p:  # R_e <- R_e^2
                    _product(e, e, buf, tmp)
                    e *= 2.0
                    e += buf
            del e, buf, tmp
            modes = np.fft.rfft(state.data.reshape(n_cells, m), axis=0)
            v = modes.T[:, None]  # (m, 1, N//2 + 1) view of modes
            v += _product(acc, v)
            out = np.fft.irfft(modes, n=n_cells, axis=0)
            amp = np.moveaxis(acc, -1, 0) + np.eye(m)
        if not np.all(np.isfinite(out)):
            raise _unstable(n, self.t_final)
        return state.with_data(out.reshape(state.data.shape)), n, amp


def _product(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """Mode by mode products of mode-last stacks a (m, m, K) and b (m, p, K).

    Column by column: out = sum_j a[:, j] b[j], summed in j order, each
    term one broadcast multiply over all rows, columns and K modes into tmp
    (out's shape, allocated when not given), so a product is 1 + 2 (m - 1)
    numpy calls and no call per matrix.  np.einsum does it in one call but
    maps more numpy code, which would show in march peak_rss_mb.
    """
    if out is None:
        out = np.empty(a.shape[:1] + b.shape[1:], a.dtype)
    np.multiply(a[:, 0, None], b[0], out=out)
    if len(b) > 1 and tmp is None:
        tmp = np.empty_like(out)
    for j in range(1, len(b)):
        np.multiply(a[:, j, None], b[j], out=tmp)
        out += tmp
    return out


def _increment(z: np.ndarray, coeffs) -> np.ndarray:
    """R(z) - I = z (c1 + z (c2 + ...)) of a mode-last stack, by Horner.

    coeffs are R's Taylor coefficients c0 = 1, c1, ..., here c_q = 1/q!;
    the constant term never enters, so the result keeps z's relative accuracy.
    Each Horner product takes one column of its right factor at a time:
    numpy runs these broadcast multiplies through two buffers of the
    output's size, so a column keeps them m times smaller than a whole stack.
    """
    m = len(z)
    e = coeffs[-1] * z
    tmp = np.empty_like(e[:, :1])
    for c in coeffs[-2:0:-1]:
        e.reshape(m * m, -1)[:: m + 1] += c  # the m diagonal entries, one strided view
        ze = np.empty_like(e)
        for k in range(m):
            _product(z, e[:, k : k + 1], ze[:, k : k + 1], tmp)
        e = ze
    return e


def _mesh_of(state):
    mesh = getattr(state, "mesh", None)
    if mesh is None:
        raise ValueError("a state needs a mesh to size dt")
    return mesh


def _unstable(step: int, t: float) -> RuntimeError:
    return RuntimeError(
        f"non-finite state after step {step} (t = {t:.6g}); the run is unstable at this cfl"
    )
