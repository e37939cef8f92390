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

Laws, moment series (combinations of cached monomial series), the weak-form
rows of each degree and the correction series are derived once per process
and cached; the public functions hand each caller a fresh list.
taylor_statements renders the lines `dgmodeq taylor` prints, and
check_taylor holds the laws and the series to frozen values.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

from .basis import (
    _xi_moment,
    basis_polynomials,
    check_degree,
    mass_diagonal,
    trace_vector,
    weak_form_rows,
)
# Not called here, but kept importable from this module so the benchmark's
# tracer (perfbench/spans.py) can wrap it where it wraps the others.
from .basis import update_matrices_exact  # noqa: F401
from .numbers import ONE, QF, Frozen, checked_choice, checked_int
from .series import DerivativeSeries

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

#: Interface-value modes for the symbolic stencil.
UPWIND_TRACE = "upwind-trace"
EXACT_POINT = "exact-point"
MODES = (UPWIND_TRACE, EXACT_POINT)

#: Default truncation: two orders beyond the deepest claim the tests make.
DEFAULT_ORDER = 8

#: The stencil algebra below needs at least this much headroom to expose
#: the leading error term of every moment at degree <= 2.
MIN_ORDER = 5


def derivative_name(order: int) -> str:
    """'u_' then order x's: how laws, the correction line and residual tables name u^(order)."""
    return "u_" + "x" * order


class DerivationError(ValueError):
    """Raised when a symbolic derivation violates a structural expectation."""


class StencilSpec(Frozen):
    """One symbolic derivation: basis degree, interface mode, truncation."""

    def __init__(self, degree: int, mode: str, order: int = DEFAULT_ORDER) -> None:
        degree = check_degree(degree)
        mode = checked_choice(mode, "mode", MODES)
        order = checked_int(order, "truncation order", MIN_ORDER)
        vars(self).update(degree=degree, mode=mode, order=order)


def basis_moments(degree: int, order: int = DEFAULT_ORDER) -> list[DerivativeSeries]:
    """Projection coefficients of smooth data as derivative series.

    Entry m is the series of a_m about the cell center:
    c_p = (1/p!) * (integral phi_m xi^p) / M_m, paired with h^p.
    """
    return list(_basis_moments(check_degree(degree), checked_int(order, "truncation order", 0)))


@lru_cache(maxsize=None)
def _monomial_series(k: int, order: int) -> DerivativeSeries:
    """S_k, the series of the cell integral of xi^k u(x + xi*h): c_p = xi_moment(k + p) / p!."""
    return DerivativeSeries([_xi_moment(k + p, factorial(p)) for p in range(order + 1)])


@lru_cache(maxsize=None)
def _basis_moments(degree: int, order: int) -> tuple[DerivativeSeries, ...]:
    # phi_m = sum_k b_mk xi^k, so a_m = sum_k (b_mk / M_m) S_k
    return tuple(
        DerivativeSeries.combination(
            (b * mass.reciprocal(), _monomial_series(k, order)) for k, b in enumerate(poly)
        )
        for poly, mass in zip(basis_polynomials(degree), mass_diagonal(degree))
    )


def modified_equation(spec: StencilSpec) -> list[DerivativeSeries]:
    """Evolution series d a_m/dt for every moment m, paired as h_shift = -1."""
    moments = _basis_moments(spec.degree, spec.order)
    if spec.mode == UPWIND_TRACE:
        u_right = DerivativeSeries.combination(zip(trace_vector(spec.degree, +1), moments))
        u_left = u_right.shift(-1)
    else:
        unit = DerivativeSeries.unit(spec.order)
        u_right, u_left = unit._shift(1, 2), unit._shift(-1, 2)
    # -(tr[m] U_R - tl[m] U_L - sum_n V[m][n] a_n) / M_m, then the 1/h
    operands = (u_right, u_left, *moments)
    return [
        DerivativeSeries.combination(zip(row, operands)).div_h()
        for row in weak_form_rows(spec.degree)
    ]


class ModifiedPDE(Frozen):
    """Normalized evolution law of one moment.

    coeffs[q] is the rational coefficient of h^q * u^(moment + 1 + q) on the
    right-hand side of

        d/dt u^(moment) = sum_q coeffs[q] * h^q * u^(moment + 1 + q) + O(h^len)

    which is the u_x...xt = ... form the moment series implies once d a_m/dt
    is divided by the leading scale of a_m.
    """

    def __init__(self, degree: int, moment: int, mode: str, coeffs: tuple[Fraction, ...]) -> None:
        vars(self).update(degree=degree, moment=moment, mode=mode, coeffs=coeffs)

    def coefficient(self, h_power: int) -> Fraction:
        q = checked_int(h_power, "h_power", 0)
        if q >= len(self.coeffs):
            raise IndexError(f"h^{q} coefficient beyond derived order {len(self.coeffs) - 1}")
        return self.coeffs[q]

    def derivative_order(self, h_power: int) -> int:
        return self.moment + 1 + checked_int(h_power, "h_power", 0)

    def statement(self, n_terms: int = 2) -> str:
        """Render e.g. 'u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)'."""
        n_terms = min(checked_int(n_terms, "n_terms", 1), len(self.coeffs))
        parts = []
        for q in range(n_terms):
            coeff = self.coeffs[q]
            coeff_txt = str(coeff) if coeff >= 0 and coeff.denominator == 1 else f"({coeff})"
            h_txt = "" if q == 0 else ("h*" if q == 1 else f"h^{q}*")
            parts.append(f"{coeff_txt}*{h_txt}{derivative_name(self.derivative_order(q))}")
        return f"{derivative_name(self.moment)}t = " + " + ".join(parts) + f" + O(h^{n_terms})"


def moment_leading_scale(degree: int, m: int) -> QF:
    """Leading coefficient of the a_m moment series.

    The moment series of a_m starts at u^(m) h^m; moment_evolution_laws
    divides out this coefficient and h^m.
    """
    degree = check_degree(degree)
    m = checked_int(m, "moment index", 0, degree)
    return _leading_scale(_basis_moments(degree, DEFAULT_ORDER), degree, m)


def _leading_scale(moments: tuple[DerivativeSeries, ...], degree: int, m: int) -> QF:
    """The u^(m) coefficient of moments[m], which every truncation order >= m holds alike."""
    lead = moments[m].coefficient(m)
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
    from fractions import Fraction

    out = []
    # the moment series modified_equation reads, so no other order's series are built
    moments = _basis_moments(spec.degree, spec.order)
    for m, dadt in enumerate(modified_equation(spec)):
        if dadt.h_shift != -1:
            raise DerivationError(f"expected h_shift -1 from the stencil, got {dadt.h_shift}")
        lead_coeff = _leading_scale(moments, spec.degree, m)
        normalized = DerivativeSeries.combination([(lead_coeff.reciprocal(), dadt)]).div_h(m)
        rational, *surds = normalized.rows
        start = -normalized.h_shift  # u^(start) pairs with h^0
        if any(rational[:start]) or any(map(any, surds)):
            for p, column in enumerate(zip(*normalized.rows)):
                if p < start and any(column):
                    raise DerivationError(
                        f"inconsistent leading scale: u^({p}) term survives below h^0"
                    )
                if any(column[1:]):
                    raise DerivationError(
                        f"irrational coefficient {normalized.coefficient(p)} at h^{p - start}; "
                        "normalization should cancel every surd"
                    )
        coeffs = tuple(Fraction(x, normalized.den) for x in rational[start:])
        out.append(ModifiedPDE(degree=spec.degree, moment=m, mode=spec.mode, coeffs=coeffs))
    return tuple(out)


def correction_series(order: int = DEFAULT_ORDER) -> DerivativeSeries:
    """Series of 2*(U(x+h/2) + U(x-h/2) - 2U(x))/h^2 - u''(x)/2.

    The discrete second difference of exact point values, scaled to expose
    how far twice-the-average-curvature sits from u''/2.  Both h^0 terms
    cancel exactly; the leading survivor is u'''' h^2 / 96.
    """
    return _correction_series(checked_int(order, "truncation order", 4))


@lru_cache(maxsize=None)
def _correction_series(order: int) -> DerivativeSeries:
    unit = DerivativeSeries.unit(order)
    # h^2 u''/2, which the division by h^2 turns into u''/2
    half_uxx = DerivativeSeries([0, 0, ONE / 2] + [0] * (order - 2))
    up, down = unit._shift(1, 2), unit._shift(-1, 2)
    return DerivativeSeries.combination([(2, up), (2, down), (-4, unit), (-1, half_uxx)]).div_h(2)


# ----------------------------------------------------------------------
# the exact claims that `dgmodeq taylor` prints and asserts


def taylor_statements() -> list[str]:
    """Rendered evolution laws for every degree, mode and moment."""
    lines = []
    for degree in (1, 2):
        for mode in MODES:
            label = "upwind" if mode == UPWIND_TRACE else "exact"
            for law in moment_evolution_laws(StencilSpec(degree, mode)):
                lines.append(f"k={degree} {label} a{law.moment}: {law.statement()}")
    series = correction_series()
    lead = series.leading()
    if lead is None:
        # a zero series says so here; check_taylor reports it as a failure
        lines.append(f"correction: C = 0 + O(h^{series.order + 1 + series.h_shift})")
    else:
        p, c = lead
        lines.append(
            f"correction: C = ({c})*h^{series.h_power(p)}*{derivative_name(p)}"
            f" + O(h^{series.h_power(p) + 2})"
        )
    return lines


#: Frozen h-power coefficients of the exact laws, keyed by (degree, mode, moment).
_FROZEN_LAWS = {
    (1, UPWIND_TRACE, 0): {0: -1, 1: 0, 2: ONE / 24},
    (1, UPWIND_TRACE, 1): {0: 0, 1: QF(-2) / 5},
    (1, EXACT_POINT, 0): {0: -1, 1: 0, 2: -ONE / 24},
    (1, EXACT_POINT, 1): {0: -1, 1: 0, 2: -ONE / 40},
    (2, UPWIND_TRACE, 0): {0: -1, 1: 0, 2: -ONE / 24},
    (2, UPWIND_TRACE, 1): {0: -1, 1: ONE / 10},
    (2, UPWIND_TRACE, 2): {0: -1, 1: ONE / 2},
    (2, EXACT_POINT, 0): {0: -1, 1: 0, 2: -ONE / 24},
    (2, EXACT_POINT, 1): {0: -1, 1: 0, 2: -ONE / 40},
    (2, EXACT_POINT, 2): {0: -1, 1: 0, 2: -ONE / 56},
}


def check_taylor() -> list[str]:
    """Exact evolution laws and the correction series against frozen values."""
    failures = []
    for (degree, mode, m), wanted in _FROZEN_LAWS.items():
        law = moment_evolution_laws(StencilSpec(degree, mode))[m]
        for h_power, want in wanted.items():
            got = law.coefficient(h_power)
            if got != want:
                failures.append(
                    f"k={degree} {mode} a{m}: h^{h_power} coefficient {got}, expected {want}"
                )
    statement = moment_evolution_laws(StencilSpec(1, UPWIND_TRACE))[1].statement()
    wanted_statement = "u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)"
    if statement != wanted_statement:
        failures.append(f"degenerate first-moment law renders as {statement!r}")
    lead = correction_series().leading()
    if lead is None or lead[0] != 4 or lead[1] != ONE / 96:
        failures.append(f"correction series leads with {lead}, expected h^2 coefficient 1/96")
    return failures
