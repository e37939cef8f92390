"""Floating-point view of the modal reference bases, plus quadrature.

All tables (polynomial coefficients, mass diagonal, traces) are demoted
from the exact quadratic-field definitions in dgmodeq.exact.basis at
construction time, so rounding of sqrt(3)/sqrt(5) entries happens exactly
once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class ModalBasis:
    """Modal basis of a given degree on xi in [-1/2, 1/2].

    Degree 0 is {1}; degree 1 is {1, xi}; degree 2 is the orthonormal triple
    {1, 2 sqrt(3) xi, 6 sqrt(5) xi^2 - sqrt(5)/2}.  A basis is its degree;
    the read-only tables below are the exact ones demoted to floats.
    """

    degree: int
    #: Diagonal of the reference mass matrix.
    mass: np.ndarray = field(init=False, repr=False, compare=False)
    #: Basis values at xi = +1/2.
    trace_right: np.ndarray = field(init=False, repr=False, compare=False)
    #: Basis values at xi = -1/2.
    trace_left: np.ndarray = field(init=False, repr=False, compare=False)
    #: Monomial coefficients of each basis function, lowest power first.
    coeff: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        degree = _exact.check_degree(self.degree)
        tables = {
            "mass": _exact.mass_diagonal(degree),
            "trace_right": _exact.trace_vector(degree, +1),
            "trace_left": _exact.trace_vector(degree, -1),
            "coeff": [p + (0,) * (degree + 1 - len(p)) for p in _exact.basis_polynomials(degree)],
        }
        object.__setattr__(self, "degree", degree)
        for name, table in tables.items():
            arr = np.array(table, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self) -> tuple:
        # rebuilt by the constructor, so copies keep their arrays read-only
        return ModalBasis, (self.degree,)

    def values(self, xi: np.ndarray | float) -> np.ndarray:
        """Basis values; output shape = shape(xi) + (degree + 1,)."""
        xi = np.asarray(xi, dtype=float)
        return (xi[..., None] ** np.arange(self.degree + 1)) @ self.coeff.T

    def derivatives(self, xi: np.ndarray | float) -> np.ndarray:
        """d phi / d xi values; output shape = shape(xi) + (degree + 1,)."""
        xi = np.asarray(xi, dtype=float)
        # Scaling by 1 and 2 is exact: this is the demoted exact derivative.
        dcoeff = self.coeff[:, 1:] * np.arange(1, self.degree + 1)
        return (xi[..., None] ** np.arange(self.degree)) @ dcoeff.T
