"""Exact modified-equation (Taylor-table) engine for the modal updates.

For smooth data, each modal coefficient of the L2 projection is a formal
series in cell-centered derivatives of u (basis_moments).  Every coefficient
evolves by one weak-form balance, exact in Q[sqrt(3), sqrt(5)]:

    d a_m/dt = -[U_R phi_m(1/2) - U_L phi_m(-1/2) - sum_n V[m][n] a_n(x)] / (h M_m)

The interface modes differ only in U_R, U_L, the values at x +- h/2: upwind
traces take U_R = sum_n phi_n(1/2) a_n(x) and U_L = U_R(x - h); exact points
take U(x + h/2) and U(x - h/2).  The float stencil's A, B are never read.

moment_evolution_laws then divides by the leading moment scale of a_m,
which must leave purely rational coefficients; any surviving surd component
means the algebra went wrong and raises DerivationError rather than being
rounded away.

Laws, moment series and the correction series are derived once per process
and cached; the public functions hand each caller a fresh list.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from numbers import Integral

from .basis import (
    check_degree,
    mass_diagonal,
    projection_moment,
    trace_vector,
    volume_matrix,
)
# Not called here, but kept importable from this module so the benchmark's
# tracer (perfbench/spans.py) can wrap it where it wraps the others.
from .basis import update_matrices_exact  # noqa: F401
from .numbers import QF
from .series import DerivativeSeries, _inv_factorial

#: Interface-value modes for the symbolic stencil.
UPWIND_TRACE = "upwind-trace"
EXACT_POINT = "exact-point"
MODES = (UPWIND_TRACE, EXACT_POINT)

#: Default truncation: two orders beyond the deepest claim the tests make.
DEFAULT_ORDER = 8

#: The stencil algebra below needs at least this much headroom to expose
#: the leading error term of every moment at degree <= 2.
MIN_ORDER = 5


class DerivationError(ValueError):
    """Raised when a symbolic derivation violates a structural expectation."""


def _check_order(order: int, minimum: int) -> None:
    """Reject anything but an integer truncation order >= minimum (bools too)."""
    if isinstance(order, bool) or not isinstance(order, Integral):
        raise ValueError(f"truncation order must be an integer, got {order!r}")
    if order < minimum:
        raise ValueError(f"truncation order {order} too small; need at least {minimum}")


@dataclass(frozen=True)
class StencilSpec:
    """One symbolic derivation: basis degree, interface mode, truncation."""

    degree: int
    mode: str
    order: int = DEFAULT_ORDER

    def __post_init__(self) -> None:
        check_degree(self.degree)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_order(self.order, MIN_ORDER)


def basis_moments(degree: int, order: int = DEFAULT_ORDER) -> list[DerivativeSeries]:
    """Projection coefficients of smooth data as derivative series.

    Entry m is the series of a_m about the cell center:
    c_p = (1/p!) * (integral phi_m xi^p) / M_m, paired with h^p.
    """
    check_degree(degree)
    _check_order(order, 0)
    return list(_basis_moments(degree, order))


@lru_cache(maxsize=None)
def _basis_moments(degree: int, order: int) -> tuple[DerivativeSeries, ...]:
    return tuple(
        DerivativeSeries(
            projection_moment(degree, m, p) * QF(_inv_factorial(p)) for p in range(order + 1)
        )
        for m in range(degree + 1)
    )


def modified_equation(spec: StencilSpec) -> list[DerivativeSeries]:
    """Evolution series d a_m/dt for every moment m, paired as h_shift = -1."""
    moments = basis_moments(spec.degree, spec.order)
    tr = trace_vector(spec.degree, +1)
    tl = trace_vector(spec.degree, -1)
    vol = volume_matrix(spec.degree)
    mass = mass_diagonal(spec.degree)
    if spec.mode == UPWIND_TRACE:
        u_right = reduce(DerivativeSeries.__add__, map(DerivativeSeries.scaled, moments, tr))
        u_left = u_right.shift(-1)
    else:
        unit = DerivativeSeries.unit(spec.order)
        u_right, u_left = unit.shift(Fraction(1, 2)), unit.shift(Fraction(-1, 2))
    out = []
    for m in range(spec.degree + 1):
        acc = u_right.scaled(tr[m]) - u_left.scaled(tl[m])
        for n in range(spec.degree + 1):
            acc = acc - moments[n].scaled(vol[m][n])
        out.append((-acc.scaled(mass[m].reciprocal())).div_h())
    return out


@dataclass(frozen=True)
class ModifiedPDE:
    """Normalized evolution law of one moment.

    coeffs[q] is the rational coefficient of h^q * u^(moment + 1 + q) on the
    right-hand side of

        d/dt u^(moment) = sum_q coeffs[q] * h^q * u^(moment + 1 + q) + O(h^len)

    which is the u_x...xt = ... form the moment series implies once d a_m/dt
    is divided by the leading scale of a_m.
    """

    degree: int
    moment: int
    mode: str
    coeffs: tuple[Fraction, ...]

    def coefficient(self, h_power: int) -> Fraction:
        if not 0 <= h_power < len(self.coeffs):
            raise IndexError(
                f"h^{h_power} coefficient beyond derived order {len(self.coeffs) - 1}"
            )
        return self.coeffs[h_power]

    def derivative_order(self, h_power: int) -> int:
        return self.moment + 1 + h_power

    def statement(self, n_terms: int = 2) -> str:
        """Render e.g. 'u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)'."""
        n_terms = min(n_terms, len(self.coeffs))
        lhs = "u_" + "x" * self.moment + "t"
        parts = []
        for q in range(n_terms):
            coeff = self.coeffs[q]
            coeff_txt = str(coeff) if coeff >= 0 and coeff.denominator == 1 else f"({coeff})"
            h_txt = "" if q == 0 else ("h*" if q == 1 else f"h^{q}*")
            parts.append(f"{coeff_txt}*{h_txt}u_" + "x" * self.derivative_order(q))
        return f"{lhs} = " + " + ".join(parts) + f" + O(h^{n_terms})"


def moment_leading_scale(degree: int, m: int) -> QF:
    """Leading coefficient of the a_m moment series.

    The moment series of a_m starts at u^(m) h^m; moment_evolution_laws
    divides out this coefficient and h^m.
    """
    lead = projection_moment(degree, m, m) * QF(_inv_factorial(m))
    if lead.is_zero():
        raise DerivationError(f"moment {m} of degree-{degree} basis has no leading term")
    return lead


def moment_evolution_laws(spec: StencilSpec) -> list[ModifiedPDE]:
    """modified_equation divided by the leading scale of every moment.

    Each d a_m/dt series must be paired as h_shift = -1 (a single 1/h from
    the stencil).  Its law collects the coefficient of h^q u^(m+1+q) for
    q = 0.. as exact Fractions.  Terms below the leading scale must vanish
    identically and every reported coefficient must be rational; violations
    raise DerivationError because they falsify the derivation itself.
    """
    return list(_evolution_laws(spec))


@lru_cache(maxsize=None)
def _evolution_laws(spec: StencilSpec) -> tuple[ModifiedPDE, ...]:
    out = []
    for m, dadt in enumerate(modified_equation(spec)):
        if dadt.h_shift != -1:
            raise ValueError(f"expected h_shift -1 from the stencil, got {dadt.h_shift}")
        lead_coeff = moment_leading_scale(spec.degree, m)
        normalized = dadt.scaled(lead_coeff.reciprocal()).div_h(m)
        coeffs: list[Fraction] = []
        for p in range(normalized.order + 1):
            coeff = normalized.coefficient(p)
            q = normalized.h_power(p)  # = p - m - 1
            if q < 0:
                if not coeff.is_zero():
                    raise DerivationError(
                        f"inconsistent leading scale: u^({p}) term survives below h^0"
                    )
                continue
            if not coeff.is_rational():
                raise DerivationError(
                    f"irrational coefficient {coeff} at h^{q}; "
                    "normalization should cancel every surd"
                )
            coeffs.append(coeff.rational_value())
        out.append(ModifiedPDE(degree=spec.degree, moment=m, mode=spec.mode, coeffs=tuple(coeffs)))
    return tuple(out)


def correction_series(order: int = DEFAULT_ORDER) -> DerivativeSeries:
    """Series of 2*(U(x+h/2) + U(x-h/2) - 2U(x))/h^2 - u''(x)/2.

    The discrete second difference of exact point values, scaled to expose
    how far twice-the-average-curvature sits from u''/2.  Both h^0 terms
    cancel exactly; the leading survivor is u'''' h^2 / 96.
    """
    _check_order(order, 4)
    return _correction_series(order)


@lru_cache(maxsize=None)
def _correction_series(order: int) -> DerivativeSeries:
    unit = DerivativeSeries.unit(order)
    bracket = unit.shift(Fraction(1, 2)) + unit.shift(Fraction(-1, 2)) - unit.scaled(2)
    scaled = bracket.scaled(2).div_h(2)
    half_uxx = DerivativeSeries.from_terms({2: Fraction(1, 2)}, order, h_shift=-2)
    return scaled - half_uxx
