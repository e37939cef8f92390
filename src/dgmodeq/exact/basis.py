"""Exact reference-cell data for the modal bases of degree 0, 1, 2.

Basis functions live on xi in [-1/2, 1/2]:

    degree 0:  {1}
    degree 1:  {1, xi}                       (mass diagonal 1, 1/12)
    degree 2:  {1, 2*sqrt(3)*xi, 6*sqrt(5)*xi^2 - sqrt(5)/2}   (orthonormal)

Everything here is computed over Q[sqrt(3), sqrt(5)]: monomial moments,
mass diagonals, interface traces, the volume matrix and the weak-form rows,
which weak_form_rows alone assembles.  modeq's laws read the rows, and the
one-sided update matrices A, B of

    dx * d a^j/dt + A a^j - B a^{j-1} = 0

are the rows closed with upwind traces.  The float stencil demotes A and B
once, so irrational entries are rounded at a single site; the laws never read them.
"""
from __future__ import annotations

from functools import lru_cache

from .numbers import ONE, QF, SQRT3, SQRT5, ZERO, RationalLike, _new, checked_int

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

MAX_DEGREE = 2

#: Polynomial coefficients in xi for each basis function, lowest power first.
_BASIS_POLYS: dict[int, tuple[tuple[QF, ...], ...]] = {
    0: ((ONE,),),
    1: ((ONE,), (ZERO, ONE)),
    2: (
        (ONE,),
        (ZERO, QF(2) * SQRT3),
        (-SQRT5 / 2, ZERO, QF(6) * SQRT5),
    ),
}


def check_degree(degree: int) -> int:
    """degree as an int in 0..MAX_DEGREE; the caches below are typed, so 1.0 misses 1's entry."""
    return checked_int(degree, "degree", 0, MAX_DEGREE)


def basis_polynomials(degree: int) -> tuple[tuple[QF, ...], ...]:
    """Exact polynomial coefficients (in xi, ascending) of each basis function."""
    return _BASIS_POLYS[check_degree(degree)]


def xi_moment(p: int) -> Fraction:
    """Integral of xi^p over [-1/2, 1/2]: zero for odd p, 2^-p/(p+1) even."""
    return _xi_moment(p).rational_value()


def _xi_moment(p: int, over: int = 1) -> QF:
    """xi_moment(p) / over as a QF, which the exact derivations use; over is a positive int.

    An even moment 1/((p+1) * 2^p * over) is built in lowest terms, a numerator of 1.
    """
    p = checked_int(p, "moment order", 0)
    return ZERO if p % 2 else _new((1, 0, 0, 0), ((p + 1) * over) << p)


def poly_eval(poly: tuple[QF, ...], xi: QF | RationalLike) -> QF:
    xi = QF.coerce(xi)
    acc = ZERO
    for k in range(len(poly) - 1, -1, -1):
        acc = acc * xi + poly[k]
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
            acc = acc + coeff * _xi_moment(k + p)
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
    side = checked_int(side, "side", -1, 1)
    if not side:
        raise ValueError("side must be +1 or -1, got 0")
    xi = _new((side, 0, 0, 0), 2)
    return tuple(poly_eval(p, xi) for p in basis_polynomials(degree))


def volume_matrix(degree: int) -> tuple[tuple[QF, ...], ...]:
    """V[m][n] = integral of phi_n * phi_m' over the reference cell."""
    polys = basis_polynomials(degree)
    derivs = [poly_derivative(p) for p in polys]
    return tuple(
        tuple(_product_moment(polys[n], derivs[m]) for n in range(len(polys)))
        for m in range(len(polys))
    )


@lru_cache(maxsize=None, typed=True)
def weak_form_rows(degree: int) -> tuple[tuple[QF, ...], ...]:
    """Row m of the weak form's factors, each divided by M_m.

    Row m is (-phi_m(1/2), phi_m(-1/2), V[m][0], .., V[m][degree]) / M_m, the
    weights of (U_R, U_L, a_0, .., a_degree) in h * d a_m/dt.
    """
    tr, tl, vol = trace_vector(degree, +1), trace_vector(degree, -1), volume_matrix(degree)
    inv_mass = [mass.reciprocal() for mass in mass_diagonal(degree)]
    return tuple(
        (-tr[m] * inv, tl[m] * inv, *(v * inv for v in vol[m])) for m, inv in enumerate(inv_mass)
    )


def update_matrices_exact(degree: int) -> tuple[tuple[tuple[QF, ...], ...], tuple[tuple[QF, ...], ...]]:
    """The exact one-sided update matrices (A, B): the weak-form rows closed with upwind traces.

    Upwinding takes both interface values from the left, U_R = sum_n phi_n(1/2) a^j_n
    and U_L the same sum over a^{j-1}, so row m = (r_R, r_L, v_0, .., v_degree) gives

        A[m][n] = -(r_R phi_n(1/2) + v_n)
        B[m][n] =   r_L phi_n(1/2)
    """
    tr, rows = trace_vector(degree, +1), weak_form_rows(degree)
    return (
        tuple(tuple(-(row[0] * t + v) for t, v in zip(tr, row[2:])) for row in rows),
        tuple(tuple(row[1] * t for t in tr) for row in rows),
    )
