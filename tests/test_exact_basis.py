"""Cell-local polynomial basis: moments, traces, exact update matrices.

The matrix literals asserted here were derived by hand from the weak form
and double-checked with an independent computer-algebra run before being
frozen; the assembly code must reproduce them entry for entry.
"""
import math
from fractions import Fraction
from itertools import chain

import pytest

from dgmodeq.basis import ModalBasis
from dgmodeq.exact import QF, UPWIND_TRACE, StencilSpec, update_matrices_exact
from dgmodeq.exact import basis as exact_basis
from dgmodeq.exact.basis import (
    MAX_DEGREE,
    basis_polynomials,
    check_degree,
    mass_diagonal,
    poly_derivative,
    poly_eval,
    poly_moment,
    trace_vector,
    volume_matrix,
    weak_form_rows,
    xi_moment,
)
from dgmodeq.exact.modeq import _monomial_series
from dgmodeq.exact.numbers import ONE, ZERO


def R(p, q=1):
    return QF(Fraction(p, q))


def test_xi_moments():
    assert xi_moment(0) == Fraction(1)
    assert xi_moment(1) == Fraction(0)
    assert xi_moment(2) == Fraction(1, 12)
    assert xi_moment(3) == Fraction(0)
    assert xi_moment(4) == Fraction(1, 80)
    assert xi_moment(6) == Fraction(1, 448)


def test_xi_moments_are_fractions():
    for p in range(12):
        moment = xi_moment(p)
        assert type(moment) is Fraction
        assert moment == (0 if p % 2 else Fraction(1, (p + 1) * 2**p))


def _canonical(q):
    """The stored form every QF keeps: a positive denominator, gcd of all five 1."""
    return q._den > 0 and math.gcd(*q._n, q._den) == 1


def test_xi_moment_is_built_in_lowest_terms():
    # == compares the stored numerators, so an unreduced moment would differ here
    for p in range(41):
        got = exact_basis._xi_moment(p)
        assert got == (ZERO if p % 2 else ONE / ((p + 1) * 2**p)), p
        assert _canonical(got), (p, got._n, got._den)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_basis_constants_are_in_lowest_terms(degree):
    a_mat, b_mat = update_matrices_exact(degree)
    values = [
        *trace_vector(degree, +1),
        *trace_vector(degree, -1),
        *mass_diagonal(degree),
        *chain(*volume_matrix(degree), *weak_form_rows(degree), *a_mat, *b_mat),
    ]
    assert [(q._n, q._den) for q in values if not _canonical(q)] == []


@pytest.mark.parametrize("k", [0, 1, 2])
def test_monomial_series_are_in_lowest_terms(k):
    for order in range(5, 13):
        series = _monomial_series(k, order)
        assert series.den > 0 and math.gcd(series.den, *chain(*series.rows)) == 1, (k, order)
        assert all(_canonical(q) for q in series.coeffs)
        wanted = tuple(exact_basis._xi_moment(k + p) / math.factorial(p) for p in range(order + 1))
        assert series.coeffs == wanted, (k, order)


def test_poly_eval_takes_ints_fractions_and_qf():
    for poly in basis_polynomials(2):
        for xi in (0, 1, Fraction(-1, 2), Fraction(1, 3)):
            assert poly_eval(poly, xi) == poly_eval(poly, QF(xi))


def test_mass_diagonals():
    assert mass_diagonal(0) == (R(1),)
    assert mass_diagonal(1) == (R(1), R(1, 12))
    assert mass_diagonal(2) == (R(1), R(1), R(1))


def test_orthogonality():
    for degree in (1, 2):
        polys = basis_polynomials(degree)
        for m, pm in enumerate(polys):
            for n, pn in enumerate(polys):
                prod = [R(0)] * (len(pm) + len(pn) - 1)
                for i, ci in enumerate(pm):
                    for j, cj in enumerate(pn):
                        prod[i + j] = prod[i + j] + ci * cj
                integral = sum(
                    (c * QF.coerce(xi_moment(p)) for p, c in enumerate(prod)), R(0)
                )
                if m == n:
                    assert integral == mass_diagonal(degree)[m]
                else:
                    assert integral == R(0)


def test_traces():
    assert trace_vector(1, +1) == (R(1), R(1, 2))
    assert trace_vector(1, -1) == (R(1), R(-1, 2))
    sq3 = QF(0, 1, 0, 0)
    sq5 = QF(0, 0, 1, 0)
    assert trace_vector(2, +1) == (R(1), sq3, sq5)
    assert trace_vector(2, -1) == (R(1), -sq3, sq5)


def test_second_mode_center_value():
    phi2 = basis_polynomials(2)[2]
    assert poly_eval(phi2, Fraction(0)) == QF(0, 0, Fraction(-1, 2), 0)


def test_poly_derivative_and_moment():
    phi1 = basis_polynomials(2)[1]  # 2*sqrt(3)*xi
    d = poly_derivative(phi1)
    assert poly_eval(d, Fraction(1, 3)) == QF(0, 2, 0, 0)
    assert poly_moment(phi1, 1) == QF(0, Fraction(1, 6), 0, 0)


def test_volume_matrix_k1():
    v = volume_matrix(1)
    assert v == ((R(0), R(0)), (R(1), R(0)))


def test_update_matrices_k1_golden():
    a, b = update_matrices_exact(1)
    assert a == ((R(1), R(1, 2)), (R(-6), R(3)))
    assert b == ((R(1), R(1, 2)), (R(-6), R(-3)))


def test_update_matrices_k2_golden():
    sq3 = QF(0, 1, 0, 0)
    sq5 = QF(0, 0, 1, 0)
    sq15 = QF(0, 0, 0, 1)
    a, b = update_matrices_exact(2)
    assert a == (
        (R(1), sq3, sq5),
        (-sq3, R(3), sq15),
        (sq5, -sq15, R(5)),
    )
    assert b == (
        (R(1), sq3, sq5),
        (-sq3, R(-3), -sq15),
        (sq5, sq15, R(5)),
    )


def test_update_matrices_k0():
    a, b = update_matrices_exact(0)
    assert a == ((R(1),),)
    assert b == ((R(1),),)


def test_conservation_rows_match():
    # row 0 of A equals row 0 of B: the cell average only feels the
    # difference of interface fluxes, so a0 telescopes over the ring
    for degree in (0, 1, 2):
        a, b = update_matrices_exact(degree)
        assert a[0] == b[0]


def test_difference_matrix_k2():
    # A - B drives the theta=0 symbol; its lower block is the rotation-like
    # part that produces the complex pair -3 +- i*sqrt(51)
    sq15 = QF(0, 0, 0, 1)
    a, b = update_matrices_exact(2)
    diff = tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )
    assert diff == (
        (R(0), R(0), R(0)),
        (R(0), R(6), R(2) * sq15),
        (R(0), R(-2) * sq15, R(0)),
    )


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_weak_form_rows_rebuild_the_update_matrices(degree):
    # the laws read the rows and the float stencil reads A and B; both come
    # from one weak form: -A[m][n] = row[0] tr[n] + row[2 + n], B[m][n] = row[1] tr[n]
    a_mat, b_mat = update_matrices_exact(degree)
    tr = trace_vector(degree, +1)
    rows = weak_form_rows(degree)
    assert len(rows) == degree + 1
    for m, row in enumerate(rows):
        assert len(row) == degree + 3
        for n in range(degree + 1):
            assert -a_mat[m][n] == row[0] * tr[n] + row[2 + n]
            assert b_mat[m][n] == row[1] * tr[n]


@pytest.mark.parametrize("entry", [0, 1, 2, 3], ids=["r_R", "r_L", "v_0", "v_1"])
def test_update_matrices_follow_the_weak_form_rows(monkeypatch, entry):
    # A and B are the rows closed with upwind traces, so one changed row entry
    # must reach them, and only through that closure
    rows = weak_form_rows(1)
    bent = (rows[0], tuple(x * 2 + 1 if i == entry else x for i, x in enumerate(rows[1])))
    want_a, want_b = update_matrices_exact(1)
    monkeypatch.setattr(exact_basis, "weak_form_rows", lambda degree: bent)
    a_mat, b_mat = update_matrices_exact(1)
    tr = trace_vector(1, +1)
    assert (a_mat[0], b_mat[0]) == (want_a[0], want_b[0])
    assert a_mat[1] == tuple(-(bent[1][0] * t + v) for t, v in zip(tr, bent[1][2:]))
    assert b_mat[1] == tuple(bent[1][1] * t for t in tr)
    assert (a_mat, b_mat) != (want_a, want_b)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        update_matrices_exact(3)
    with pytest.raises(ValueError):
        mass_diagonal(-1)


DEGREE_CONSTRUCTORS = {
    "ModalBasis": ModalBasis,
    "StencilSpec": lambda degree: StencilSpec(degree, UPWIND_TRACE),
}


@pytest.mark.parametrize("make", DEGREE_CONSTRUCTORS.values(), ids=DEGREE_CONSTRUCTORS.keys())
@pytest.mark.parametrize("degree", [3, -1, 1.0, True], ids=repr)
def test_degree_guard_rejects(make, degree):
    # 1.0 and True compare equal to a valid degree; the guard must still refuse them
    with pytest.raises(ValueError, match="degree"):
        make(degree)


def test_degree_guard_accepts_integers():
    for degree in range(MAX_DEGREE + 1):
        check_degree(degree)
        assert ModalBasis(degree).degree == degree
        assert StencilSpec(degree, UPWIND_TRACE).degree == degree


# Each exact-basis function of a degree, cached or not, with the int-degree
# arguments that warm it.
CACHED_BY_DEGREE = {
    "weak_form_rows": (weak_form_rows, ()),
    "trace_vector": (trace_vector, (1,)),
    "mass_diagonal": (mass_diagonal, ()),
    "volume_matrix": (volume_matrix, ()),
    "update_matrices_exact": (update_matrices_exact, ()),
}


@pytest.mark.parametrize("name", CACHED_BY_DEGREE)
def test_warm_cache_still_rejects_equal_degrees(name):
    # True == 1.0 == 1 and they hash alike, so an untyped cache key would hand
    # back the degree-1 entry without running the degree guard
    fn, rest = CACHED_BY_DEGREE[name]
    for cached, _ in CACHED_BY_DEGREE.values():
        if hasattr(cached, "cache_clear"):  # V, A and B are built afresh on every call
            cached.cache_clear()
    fn(1, *rest)
    for degree in (True, 1.0):
        with pytest.raises(ValueError, match="degree"):
            fn(degree, *rest)


def test_non_orthogonal_basis_is_refused(monkeypatch):
    # the mass matrix is kept as its diagonal only because the bases are orthogonal
    monkeypatch.setitem(exact_basis._BASIS_POLYS, 1, ((QF(1),), (QF(1), QF(1))))
    mass_diagonal.cache_clear()
    try:
        with pytest.raises(AssertionError, match="basis functions 0,1 are not orthogonal"):
            mass_diagonal(1)
    finally:
        mass_diagonal.cache_clear()


@pytest.mark.parametrize("side", [True, 1.0, 0, 2, "1"], ids=repr)
def test_trace_vector_rejects_bad_sides(side):
    # True == 1.0 == 1, yet only the integers +1 and -1 name an edge
    trace_vector.cache_clear()
    trace_vector(1, 1)
    with pytest.raises(ValueError, match="side"):
        trace_vector(1, side)


def test_integer_arguments_are_checked():
    for bad in (1.5, True, -1):
        with pytest.raises(ValueError, match="moment order"):
            xi_moment(bad)
    np = pytest.importorskip("numpy")
    assert ModalBasis(np.int64(2)).degree == 2 and type(ModalBasis(np.int64(2)).degree) is int
    assert type(StencilSpec(np.int64(1), UPWIND_TRACE, np.int64(6)).order) is int


def test_trace_vector_accepts_numpy_integer_sides():
    np = pytest.importorskip("numpy")
    assert trace_vector(2, np.int64(1)) == trace_vector(2, 1)
    assert trace_vector(2, np.int32(-1)) == trace_vector(2, -1)
