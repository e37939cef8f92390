"""Taylor tables for the semi-discrete moment evolution.

Every number frozen here was produced twice before implementation: once by
hand from the update stencils and once by an independent computer-algebra
session expanding the same weak forms. The engine under test shares no code
with either derivation.
"""
from fractions import Fraction as F

import pytest

from dgmodeq import cli
from dgmodeq.analysis import check_taylor
from dgmodeq.exact import basis, modeq
from dgmodeq.exact import (
    EXACT_POINT,
    UPWIND_TRACE,
    QF,
    DerivationError,
    DerivativeSeries,
    StencilSpec,
    basis_moments,
    correction_series,
    modified_equation,
    moment_evolution_laws,
    moment_leading_scale,
    update_matrices_exact,
)
from dgmodeq.exact.series import _taylor_weights

R = QF.rational
SQ3 = QF(0, 1, 0, 0)
SQ5 = QF(0, 0, 1, 0)


def series_terms(s: DerivativeSeries) -> dict:
    return {p: c for p, c in enumerate(s.coeffs) if c != R(0)}


# ----------------------------------------------------------------------
# moments of the exact solution


MOMENT_TERMS = {
    (1, 0): {0: R(1), 2: R(1, 24), 4: R(1, 1920), 6: R(1, 322560), 8: R(1, 92897280)},
    (1, 1): {1: R(1), 3: R(1, 40), 5: R(1, 4480), 7: R(1, 967680)},
    (2, 0): {0: R(1), 2: R(1, 24), 4: R(1, 1920), 6: R(1, 322560), 8: R(1, 92897280)},
    (2, 1): {1: SQ3 / 6, 3: SQ3 / 240, 5: SQ3 / 26880, 7: SQ3 / 5806080},
    (2, 2): {2: SQ5 / 60, 4: SQ5 / 3360, 6: SQ5 / 483840, 8: SQ5 / 127733760},
}


@pytest.mark.parametrize("degree,m", sorted(MOMENT_TERMS))
def test_basis_moment_series(degree, m):
    series = basis_moments(degree)[m]
    assert series.h_shift == 0
    assert series_terms(series) == MOMENT_TERMS[(degree, m)]


def test_moment_leading_scale():
    assert moment_leading_scale(1, 1) == R(1)
    assert moment_leading_scale(2, 1) == SQ3 / 6
    assert moment_leading_scale(2, 2) == SQ5 / 60
    assert moment_leading_scale(2, 0) == R(1)


# ----------------------------------------------------------------------
# raw upwind-trace series (index p pairs with u^(p) h^(p-1))


UPWIND_RAW = {
    (1, 0): {1: R(-1), 3: R(1, 24), 4: R(-1, 30), 5: R(13, 1152), 6: R(-1, 336),
             7: R(41, 64512), 8: R(-47, 403200)},
    (1, 1): {3: R(-2, 5), 4: R(1, 5), 5: R(-29, 420), 6: R(1, 56), 7: R(-11, 2880),
             8: R(47, 67200)},
    (2, 0): {1: R(-1), 3: R(-1, 24), 4: R(1, 120), 5: R(-11, 2688), 6: R(5, 4032),
             7: R(-307, 967680), 8: R(107, 1612800)},
    (2, 1): {2: -SQ3 / 6, 3: SQ3 / 60, 4: SQ3 * R(-19, 1680), 5: SQ3 * R(13, 3360),
             6: SQ3 * R(-61, 48384), 7: SQ3 * R(17, 53760), 8: SQ3 * R(-21211, 319334400)},
    (2, 2): {3: -SQ5 / 60, 4: SQ5 / 120, 5: SQ5 * R(-13, 3360), 6: SQ5 * R(5, 4032),
             7: SQ5 * R(-17, 53760), 8: SQ5 * R(107, 1612800)},
}


@pytest.mark.parametrize("degree,m", sorted(UPWIND_RAW))
def test_upwind_raw_series(degree, m):
    series = modified_equation(StencilSpec(degree, UPWIND_TRACE))[m]
    assert series.h_shift == -1
    assert series_terms(series) == UPWIND_RAW[(degree, m)]


def test_first_moment_degeneracy_is_exact():
    # the u'' entry of the k=1 slope equation cancels identically, not just
    # to tolerance: the slope follows a shadow of u_x at leading order
    series = modified_equation(StencilSpec(1, UPWIND_TRACE))[1]
    assert series.coefficient(2) == R(0)
    assert series.coefficient(3) == R(-2, 5)


# ----------------------------------------------------------------------
# raw exact-point series


EXACT_RAW = {
    (1, 1): {2: R(-1), 4: R(-1, 40), 6: R(-1, 4480), 8: R(-1, 967680)},
    (2, 1): {2: -SQ3 / 6, 4: -SQ3 / 240, 6: -SQ3 / 26880, 8: -SQ3 / 5806080},
    (2, 2): {3: -SQ5 / 60, 5: -SQ5 / 3360, 7: -SQ5 / 483840},
}


@pytest.mark.parametrize("degree,m", sorted(EXACT_RAW))
def test_exact_point_raw_series(degree, m):
    series = modified_equation(StencilSpec(degree, EXACT_POINT))[m]
    assert series.h_shift == -1
    assert series_terms(series) == EXACT_RAW[(degree, m)]


@pytest.mark.parametrize("degree", [1, 2])
def test_exact_point_structure_theorem(degree):
    # with exact interface data every moment evolves as the exact spatial
    # derivative of its own moment series, at every retained order: the
    # volume projection error is orthogonal to the test derivatives
    order = 8
    rhs = modified_equation(StencilSpec(degree, EXACT_POINT, order))
    moments = basis_moments(degree, order)
    for m in range(degree + 1):
        predicted = (-moments[m].differentiated()).truncated(rhs[m].order)
        assert rhs[m] == predicted


# ----------------------------------------------------------------------
# normalized evolution laws


LAWS = {
    (1, UPWIND_TRACE, 0): (F(-1), F(0), F(1, 24), F(-1, 30), F(13, 1152), F(-1, 336),
                           F(41, 64512), F(-47, 403200)),
    (1, UPWIND_TRACE, 1): (F(0), F(-2, 5), F(1, 5), F(-29, 420), F(1, 56),
                           F(-11, 2880), F(47, 67200)),
    (2, UPWIND_TRACE, 0): (F(-1), F(0), F(-1, 24), F(1, 120), F(-11, 2688), F(5, 4032),
                           F(-307, 967680), F(107, 1612800)),
    (2, UPWIND_TRACE, 1): (F(-1), F(1, 10), F(-19, 280), F(13, 560), F(-61, 8064),
                           F(17, 8960), F(-21211, 53222400)),
    (2, UPWIND_TRACE, 2): (F(-1), F(1, 2), F(-13, 56), F(25, 336), F(-17, 896),
                           F(107, 26880)),
    (1, EXACT_POINT, 0): (F(-1), F(0), F(-1, 24), F(0), F(-1, 1920), F(0),
                          F(-1, 322560), F(0)),
    (1, EXACT_POINT, 1): (F(-1), F(0), F(-1, 40), F(0), F(-1, 4480), F(0), F(-1, 967680)),
    (2, EXACT_POINT, 0): (F(-1), F(0), F(-1, 24), F(0), F(-1, 1920), F(0),
                          F(-1, 322560), F(0)),
    (2, EXACT_POINT, 1): (F(-1), F(0), F(-1, 40), F(0), F(-1, 4480), F(0), F(-1, 967680)),
    (2, EXACT_POINT, 2): (F(-1), F(0), F(-1, 56), F(0), F(-1, 8064), F(0)),
}


@pytest.mark.parametrize("degree,mode,m", sorted(LAWS))
def test_evolution_laws(degree, mode, m):
    law = moment_evolution_laws(StencilSpec(degree, mode))[m]
    assert law.coeffs == LAWS[(degree, mode, m)]
    assert law.degree == degree and law.moment == m and law.mode == mode


def test_all_law_coefficients_rational():
    # the surds of the basis cancel against the moment normalization;
    # moment_evolution_laws raises DerivationError if any coefficient kept a surd
    for degree in (1, 2):
        for mode in (UPWIND_TRACE, EXACT_POINT):
            for law in moment_evolution_laws(StencilSpec(degree, mode)):
                assert all(isinstance(c, F) for c in law.coeffs)


def test_higher_truncation_extends_prefix():
    short = moment_evolution_laws(StencilSpec(2, UPWIND_TRACE, 6))[1]
    long = moment_evolution_laws(StencilSpec(2, UPWIND_TRACE, 10))[1]
    assert long.coeffs[: len(short.coeffs)] == short.coeffs


def test_statement_rendering():
    laws = moment_evolution_laws(StencilSpec(1, UPWIND_TRACE))
    assert laws[1].statement() == "u_xt = 0*u_xx + (-2/5)*h*u_xxx + O(h^2)"
    assert laws[0].statement() == "u_t = (-1)*u_x + 0*h*u_xx + O(h^2)"
    assert laws[0].statement(3) == "u_t = (-1)*u_x + 0*h*u_xx + (1/24)*h^2*u_xxx + O(h^3)"


def test_derivative_order_mapping():
    law = moment_evolution_laws(StencilSpec(2, UPWIND_TRACE))[2]
    assert law.derivative_order(0) == 3
    assert law.derivative_order(1) == 4


# ----------------------------------------------------------------------
# correction series


def test_correction_series_terms():
    s = correction_series()
    assert s.h_shift == -2
    assert series_terms(s) == {4: R(1, 96), 6: R(1, 11520), 8: R(1, 2580480)}
    # leading power in h is 2: p=4 with two stencil divisions by h
    p, c = s.leading()
    assert s.h_power(p) == 2 and c.rational_value() == F(1, 96)


def test_correction_low_orders_vanish():
    s = correction_series()
    for p in range(4):
        assert s.coefficient(p) == R(0)


# ----------------------------------------------------------------------
# validation


def test_order_floor():
    with pytest.raises(ValueError):
        StencilSpec(1, UPWIND_TRACE, order=4)
    with pytest.raises(ValueError):
        correction_series(order=3)


def test_unknown_mode_and_degree():
    with pytest.raises(ValueError):
        StencilSpec(1, "downwind")
    with pytest.raises(ValueError):
        StencilSpec(3, UPWIND_TRACE)


def test_degree_zero_laws():
    # P0 is first-order upwind for cell averages; the classical point-value
    # table has -1/6 at h^2, the average-carried version picks up -5/24
    # because the average itself sits 1/24 h^2 u'' away from the point value
    law = moment_evolution_laws(StencilSpec(0, UPWIND_TRACE))[0]
    assert law.coeffs[0] == F(-1)
    assert law.coeffs[1] == F(1, 2)
    assert law.coeffs[2] == F(-5, 24)


# ----------------------------------------------------------------------
# derived once per process


def _clear_caches():
    for cached in (
        modeq._evolution_laws,
        modeq._correction_series,
        modeq._basis_moments,
        _taylor_weights,
    ):
        cached.cache_clear()


@pytest.mark.parametrize("order", [8.0, 8.5, True, "8"])
def test_order_must_be_an_integer(order):
    # 8.0 == 8 and hashes alike, so a cached order-8 law must not answer for it
    _clear_caches()
    for _ in range(2):
        with pytest.raises(ValueError, match="integer"):
            StencilSpec(1, UPWIND_TRACE, order)
        with pytest.raises(ValueError, match="integer"):
            correction_series(order)
        with pytest.raises(ValueError, match="integer"):
            basis_moments(1, order)
        moment_evolution_laws(StencilSpec(1, UPWIND_TRACE, 8))
        correction_series(8)


def test_laws_and_moments_are_fresh_lists():
    spec = StencilSpec(2, EXACT_POINT)
    for derive in (lambda: moment_evolution_laws(spec), lambda: basis_moments(2, 8)):
        first = derive()
        kept = list(first)
        first[0] = None
        first.append(None)
        second = derive()
        assert second is not first
        assert second == kept


def test_taylor_assert_derives_each_law_once(capsys):
    _clear_caches()
    assert cli.main(["taylor", "--assert"]) == 0, capsys.readouterr()
    assert modeq._evolution_laws.cache_info().misses == 4
    assert modeq._correction_series.cache_info().misses == 1


# ----------------------------------------------------------------------
# the laws are derived from the weak form, not from the stencil's A and B


def test_laws_do_not_read_the_update_matrices(monkeypatch):
    # a wrong A or B must not be able to hide in both routes at once
    wanted = {
        (degree, mode): moment_evolution_laws(StencilSpec(degree, mode))
        for degree in (0, 1, 2)
        for mode in (UPWIND_TRACE, EXACT_POINT)
    }

    def forbidden(degree):
        raise AssertionError("the exact laws read update_matrices_exact")

    monkeypatch.setattr(basis, "update_matrices_exact", forbidden)
    monkeypatch.setattr(modeq, "update_matrices_exact", forbidden)
    _clear_caches()
    for (degree, mode), laws in wanted.items():
        derived = moment_evolution_laws(StencilSpec(degree, mode))
        assert derived == laws
        for law in derived:
            if (degree, mode, law.moment) in LAWS:
                assert law.coeffs == LAWS[(degree, mode, law.moment)]
    assert check_taylor() == []


@pytest.mark.parametrize("order", [5, 8, 12])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_update_matrices_realise_the_upwind_weak_form(degree, order):
    # d a_m/dt = -(sum_n A_mn a_n(x) - B_mn a_n(x - h)) / h, exactly
    a_mat, b_mat = update_matrices_exact(degree)
    moments = basis_moments(degree, order)
    rhs = modified_equation(StencilSpec(degree, UPWIND_TRACE, order))
    for m in range(degree + 1):
        terms = [
            moments[n].scaled(a_mat[m][n]) - moments[n].shift(-1).scaled(b_mat[m][n])
            for n in range(degree + 1)
        ]
        assert (-sum(terms[1:], terms[0])).div_h() == rhs[m]
