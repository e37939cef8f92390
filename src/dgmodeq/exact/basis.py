"""Exact reference-cell data for the modal bases of degree 0, 1, 2.

Basis functions live on xi in [-1/2, 1/2]:

    degree 0:  {1}
    degree 1:  {1, xi}                       (mass diagonal 1, 1/12)
    degree 2:  {1, 2*sqrt(3)*xi, 6*sqrt(5)*xi^2 - sqrt(5)/2}   (orthonormal)

Everything here is computed over Q[sqrt(3), sqrt(5)]: monomial moments,
mass diagonals, interface traces, the volume matrix of the weak form, and
the one-sided update matrices A, B of

    dx * d a^j/dt + A a^j - B a^{j-1} = 0.

The floating-point stencil demotes A and B exactly once, so the irrational
entries are rounded at a single site; the exact laws (modeq) never read them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from numbers import Integral

from .numbers import ONE, QF, SQRT3, SQRT5, ZERO

MAX_DEGREE = 2

#: Polynomial coefficients in xi for each basis function, lowest power first.
_BASIS_POLYS: dict[int, tuple[tuple[QF, ...], ...]] = {
    0: ((ONE,),),
    1: ((ONE,), (ZERO, ONE)),
    2: (
        (ONE,),
        (ZERO, QF(2) * SQRT3),
        (QF(Fraction(-1, 2)) * SQRT5, ZERO, QF(6) * SQRT5),
    ),
}


def check_degree(degree: int) -> None:
    """Reject anything but an integer basis degree in 0..MAX_DEGREE (bools too).

    The caches below are typed, so True or 1.0 never hits degree 1's entry.
    """
    if isinstance(degree, bool) or not isinstance(degree, Integral) or not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be an integer from 0 to {MAX_DEGREE}, got {degree!r}")


def basis_polynomials(degree: int) -> tuple[tuple[QF, ...], ...]:
    """Exact polynomial coefficients (in xi, ascending) of each basis function."""
    check_degree(degree)
    return _BASIS_POLYS[degree]


def xi_moment(p: int) -> Fraction:
    """Integral of xi^p over [-1/2, 1/2]: zero for odd p, 2^-p/(p+1) even."""
    if p < 0:
        raise ValueError("moment order must be nonnegative")
    if p % 2 == 1:
        return Fraction(0)
    return Fraction(1, (p + 1) * 2**p)


def poly_eval(poly: tuple[QF, ...], xi: Fraction) -> QF:
    acc = ZERO
    for k in range(len(poly) - 1, -1, -1):
        acc = acc * QF(xi) + poly[k]
    return acc


def poly_derivative(poly: tuple[QF, ...]) -> tuple[QF, ...]:
    if len(poly) == 1:
        return (ZERO,)
    return tuple(poly[k] * k for k in range(1, len(poly)))


def poly_moment(poly: tuple[QF, ...], p: int) -> QF:
    """Integral of poly(xi) * xi^p over the reference cell."""
    acc = ZERO
    for k, coeff in enumerate(poly):
        if not coeff.is_zero():
            acc = acc + coeff * QF(xi_moment(k + p))
    return acc


@lru_cache(maxsize=None, typed=True)
def mass_diagonal(degree: int) -> tuple[QF, ...]:
    """Exact diagonal of the reference mass matrix (bases are orthogonal)."""
    polys = basis_polynomials(degree)
    out = []
    for m, pm in enumerate(polys):
        for n, pn in enumerate(polys):
            entry = _product_moment(pm, pn)
            if m == n:
                out.append(entry)
            elif not entry.is_zero():
                raise AssertionError(f"basis functions {m},{n} are not orthogonal")
    return tuple(out)


def _product_moment(pa: tuple[QF, ...], pb: tuple[QF, ...]) -> QF:
    """Integral of pa(xi) * pb(xi) over the reference cell."""
    return sum((cb * poly_moment(pa, j) for j, cb in enumerate(pb) if cb), ZERO)


@lru_cache(maxsize=None, typed=True)
def trace_vector(degree: int, side: int) -> tuple[QF, ...]:
    """Basis values at the cell edge: side=+1 for xi=1/2, side=-1 for xi=-1/2."""
    if isinstance(side, bool) or not isinstance(side, Integral) or side not in (1, -1):
        raise ValueError(f"side must be the integer +1 or -1, got {side!r}")
    xi = Fraction(int(side), 2)
    return tuple(poly_eval(p, xi) for p in basis_polynomials(degree))


@lru_cache(maxsize=None, typed=True)
def volume_matrix(degree: int) -> tuple[tuple[QF, ...], ...]:
    """V[m][n] = integral of phi_n * phi_m' over the reference cell."""
    polys = basis_polynomials(degree)
    derivs = [poly_derivative(p) for p in polys]
    return tuple(
        tuple(_product_moment(polys[n], derivs[m]) for n in range(len(polys)))
        for m in range(len(polys))
    )


@lru_cache(maxsize=None, typed=True)
def update_matrices_exact(degree: int) -> tuple[tuple[tuple[QF, ...], ...], tuple[tuple[QF, ...], ...]]:
    """Assemble the exact one-sided update matrices (A, B) from the weak form.

    Upwinding takes both interface values from the left, so the update of
    cell j couples only a^j (through A) and a^{j-1} (through B):

        A[m][n] = (phi_m(1/2) phi_n(1/2) - V[m][n]) / M_m
        B[m][n] =  phi_m(-1/2) phi_n(1/2)           / M_m
    """
    check_degree(degree)
    tr = trace_vector(degree, +1)
    tl = trace_vector(degree, -1)
    vol = volume_matrix(degree)
    mass = mass_diagonal(degree)
    n_dofs = degree + 1
    a_rows = []
    b_rows = []
    for m in range(n_dofs):
        inv_mass = mass[m].reciprocal()
        a_rows.append(
            tuple((tr[m] * tr[n] - vol[m][n]) * inv_mass for n in range(n_dofs))
        )
        b_rows.append(tuple(tl[m] * tr[n] * inv_mass for n in range(n_dofs)))
    return tuple(a_rows), tuple(b_rows)


@lru_cache(maxsize=None, typed=True)
def projection_moment(degree: int, m: int, p: int) -> QF:
    """Exact weight of u^(p) h^p / p! in the m-th L2 projection coefficient.

    Projecting u(x_j + xi*h) onto phi_m gives

        a_m = sum_p u^(p)(x_j) h^p/p! * (integral phi_m xi^p) / M_m

    and this returns the moment ratio (integral phi_m xi^p) / M_m.
    """
    check_degree(degree)
    polys = basis_polynomials(degree)
    if not 0 <= m < len(polys):
        raise ValueError(f"moment index {m} outside degree-{degree} basis")
    return poly_moment(polys[m], p) / mass_diagonal(degree)[m]
