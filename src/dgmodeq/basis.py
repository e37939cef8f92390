"""Floating-point view of the modal reference bases, plus quadrature.

All tables (polynomial coefficients, mass diagonal, traces) are demoted
from the exact quadratic-field definitions in dgmodeq.exact.basis at
construction time, so rounding of sqrt(3)/sqrt(5) entries happens exactly
once.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exact import basis as _exact
from .exact.numbers import checked_int


@lru_cache(maxsize=None, typed=True)
def gauss_legendre_halfcell(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the reference cell [-1/2, 1/2].

    The arrays are cached and read-only.
    """
    n_nodes = checked_int(n_nodes, "n_nodes", 1)
    # Newton's method on P_n from the standard initial guesses.
    x = np.cos(np.pi * (np.arange(n_nodes, 0, -1) - 0.25) / (n_nodes + 0.5))
    for _ in range(100):
        p, dp = _legendre(n_nodes, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            break
    dp = _legendre(n_nodes, x)[1]
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    # Exact symmetry about the cell center, as the rule has.
    x = (x - x[::-1]) / 2.0
    weights = (weights + weights[::-1]) / 2.0
    for arr in (x, weights):
        arr /= 2.0
        arr.flags.writeable = False
    return x, weights


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the recurrence j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}."""
    p, p_prev = np.ones_like(x), np.zeros_like(x)
    for j in range(1, n + 1):
        p, p_prev = ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, p
    return p, n * (x * p - p_prev) / (x * x - 1.0)


class ModalBasis:
    """Modal basis of a given degree on xi in [-1/2, 1/2].

    Degree 0 is {1}; degree 1 is {1, xi}; degree 2 is the orthonormal triple
    {1, 2 sqrt(3) xi, 6 sqrt(5) xi^2 - sqrt(5)/2}.
    """

    def __init__(self, degree: int) -> None:
        self._degree = degree = _exact.check_degree(degree)
        polys = _exact.basis_polynomials(degree)
        n = degree + 1
        coeff = np.zeros((n, n))
        for m, poly in enumerate(polys):
            for k, c in enumerate(poly):
                coeff[m, k] = float(c)
        dcoeff = np.zeros((n, max(n - 1, 1)))
        for m, poly in enumerate(polys):
            dpoly = _exact.poly_derivative(poly)
            for k, c in enumerate(dpoly):
                dcoeff[m, k] = float(c)
        self._coeff = coeff
        self._dcoeff = dcoeff
        self._mass = np.array([float(c) for c in _exact.mass_diagonal(degree)])
        self._trace_right = np.array([float(c) for c in _exact.trace_vector(degree, +1)])
        self._trace_left = np.array([float(c) for c in _exact.trace_vector(degree, -1)])
        for arr in (self._coeff, self._dcoeff, self._mass, self._trace_right, self._trace_left):
            arr.flags.writeable = False

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def n_dofs(self) -> int:
        return self._degree + 1

    @property
    def mass(self) -> np.ndarray:
        """Diagonal of the reference mass matrix."""
        return self._mass

    @property
    def trace_right(self) -> np.ndarray:
        """Basis values at xi = +1/2."""
        return self._trace_right

    @property
    def trace_left(self) -> np.ndarray:
        """Basis values at xi = -1/2."""
        return self._trace_left

    def values(self, xi: np.ndarray | float) -> np.ndarray:
        """Basis values; output shape = shape(xi) + (n_dofs,)."""
        xi = np.asarray(xi, dtype=float)
        powers = xi[..., None] ** np.arange(self.n_dofs)
        return powers @ self._coeff.T

    def derivatives(self, xi: np.ndarray | float) -> np.ndarray:
        """d phi / d xi values; output shape = shape(xi) + (n_dofs,)."""
        xi = np.asarray(xi, dtype=float)
        powers = xi[..., None] ** np.arange(self._dcoeff.shape[1])
        return powers @ self._dcoeff.T

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModalBasis):
            return NotImplemented
        return self._degree == other._degree

    def __hash__(self) -> int:
        return hash(("ModalBasis", self._degree))

    def __repr__(self) -> str:
        return f"ModalBasis(degree={self._degree})"
