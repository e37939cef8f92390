"""Truncated derivative series: shifts, products, h bookkeeping."""
import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from dgmodeq.exact import QF, DerivativeSeries

#: Offsets the derivations use (+-1, +-1/2) and two they do not.
OFFSETS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2))


def q(num, den=1):
    return QF(Fraction(num, den))


def test_unit_series_represents_point_value():
    u = DerivativeSeries.unit(6)
    assert u.coefficient(0) == q(1)
    assert all(u.coefficient(p) == q(0) for p in range(1, 7))
    assert u.h_shift == 0


def test_shift_is_taylor_expansion():
    # u(x+h) = sum_p u^(p)(x) h^p / p!
    u = DerivativeSeries.unit(8).shift(1)
    fact = 1
    for p in range(9):
        if p:
            fact *= p
        assert u.coefficient(p) == q(1, fact)


def test_negative_shift_alternates_signs():
    u = DerivativeSeries.unit(6).shift(-1)
    fact = 1
    for p in range(7):
        if p:
            fact *= p
        assert u.coefficient(p) == q((-1) ** p, fact)


def test_half_shift():
    u = DerivativeSeries.unit(4).shift(Fraction(1, 2))
    assert u.coefficient(1) == q(1, 2)
    assert u.coefficient(2) == q(1, 8)
    assert u.coefficient(3) == q(1, 48)


def test_shift_composition_round_trip():
    base = DerivativeSeries([0, q(1), 0, q(1, 40), 0, 0, 0, 0, 0])
    moved = base.shift(Fraction(1, 2)).shift(-Fraction(1, 2))
    assert moved == base


def test_shift_whole_equals_two_halves():
    base = DerivativeSeries([q(2), 0, q(-1, 3), 0, 0, 0, 0, 0])
    assert base.shift(1) == base.shift(Fraction(1, 2)).shift(Fraction(1, 2))


def test_linear_data_shift():
    # series for u and h*u' evaluated one cell left: the u'' entry of the
    # combination a1-at-j-minus-1 picks up the -1 expected from re-expansion
    a1 = DerivativeSeries([0, q(1), 0, 0, 0, 0])
    left = a1.shift(-1)
    assert left.coefficient(1) == q(1)
    assert left.coefficient(2) == q(-1)
    assert left.coefficient(3) == q(1, 2)


def test_addition_requires_matching_h_shift():
    a = DerivativeSeries.unit(4)
    b = DerivativeSeries.unit(4).div_h()
    with pytest.raises(ValueError):
        DerivativeSeries.combination([(1, a), (1, b)])


def test_div_h_only_moves_bookkeeping():
    a = DerivativeSeries([0, 0, q(3), 0, 0])
    b = a.div_h()
    assert b.h_shift == -1
    assert b.coefficient(2) == q(3)
    assert b.h_power(2) == 1
    assert a.h_power(2) == 2


def test_series_needs_a_coefficient():
    with pytest.raises(ValueError, match="at least the p=0 coefficient"):
        DerivativeSeries([])


def test_truncation_is_strict():
    a = DerivativeSeries.unit(3)
    with pytest.raises(IndexError, match="beyond truncation order 3"):
        a.coefficient(4)


@pytest.mark.parametrize("value", [True, False, -3, -1, 2.0, 0.5, "2", None], ids=repr)
def test_series_indices_must_be_nonnegative_integers(value):
    # unit(True) would track order 1, unit(-3) order 0, and coefficient(True)
    # and h_power(True) answer for p = 1
    with pytest.raises(ValueError, match="order"):
        DerivativeSeries.unit(value)
    with pytest.raises(ValueError, match="p must be"):
        DerivativeSeries.unit(3).coefficient(value)
    with pytest.raises(ValueError, match="p must be"):
        DerivativeSeries.unit(3).h_power(value)


def test_addition_truncates_to_shorter():
    a = DerivativeSeries.unit(6)
    b = DerivativeSeries.unit(3)
    assert DerivativeSeries.combination([(1, a), (1, b)]).order == 3
    assert DerivativeSeries.combination([(1, b), (1, a)]).order == 3


def test_scaling():
    a = DerivativeSeries([0, q(2), q(4), 0])
    s = DerivativeSeries.combination([(q(1, 2), a)])
    assert s.coefficient(1) == q(1)
    assert s.coefficient(2) == q(2)
    for zero in (q(0), 0, Fraction(0)):
        assert DerivativeSeries.combination([(zero, a)]).leading() is None


def test_leading_term():
    a = DerivativeSeries([0, 0, 0, q(-2, 5), 0, 0, 0]).div_h()
    p, c = a.leading()
    assert p == 3 and c == q(-2, 5)
    assert a.h_power(p) == 2


def _reference_shift(series, off):
    """The Taylor shift written out term by term, with checked QF weights."""
    coeffs = series.coeffs
    out = []
    for r in range(len(coeffs)):
        acc = QF(0)
        for p in range(r + 1):
            weight = off ** (r - p) * (1 / Fraction(math.factorial(r - p)))
            acc = acc + coeffs[p] * QF(weight)
        out.append(acc)
    return DerivativeSeries(out, series.h_shift)


def _sparse_series(rng, n):
    return DerivativeSeries(
        [
            QF(0) if rng.random() < 0.5 else QF(*(
                0 if rng.random() < 0.5 else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(4)
            ))
            for _ in range(n)
        ],
        rng.randint(-2, 1),
    )


def test_shift_and_combinations_match_reference():
    # cached weights, zero skipping and the direct difference against the plain loops
    rng = random.Random(1018)
    for n in range(1, 12):
        for _ in range(6):
            s, t = _sparse_series(rng, n), _sparse_series(rng, n)
            t = DerivativeSeries(t.coeffs, s.h_shift)
            for off in OFFSETS:
                assert s.shift(off) == _reference_shift(s, off)
            factor = QF.coerce(_sparse_series(rng, 1).coeffs[0])
            scaled = DerivativeSeries.combination([(factor, s)])
            diff = DerivativeSeries.combination([(1, s), (-1, t)])
            assert scaled.coeffs == tuple(c * factor for c in s.coeffs)
            assert diff.coeffs == tuple(a + (-b) for a, b in zip(s.coeffs, t.coeffs))
            for result in (s.shift(1), scaled, diff):
                assert all(type(x) is Fraction for c in result.coeffs for x in (c.a, c.b, c.c, c.d))


@pytest.mark.parametrize("value", [1.5, 0.5, 1.0, True, "1"], ids=repr)
def test_h_powers_must_be_integers(value):
    # int() would truncate 1.5 to 1 and read True as 1 without a word
    with pytest.raises(ValueError, match="h_shift"):
        DerivativeSeries([1, 2], h_shift=value)
    with pytest.raises(ValueError, match="power"):
        DerivativeSeries([1, 2]).div_h(value)


def test_h_powers_accept_integers():
    np = pytest.importorskip("numpy")
    for value in (2, -3, np.int64(2), np.int32(-3)):
        s = DerivativeSeries([1, 2], h_shift=value)
        assert s.h_shift == int(value) and type(s.h_shift) is int
    s = DerivativeSeries([1, 2], h_shift=1)
    assert s.div_h(np.int64(2)).h_shift == -1
    assert type(s.div_h(np.int64(2)).h_shift) is int
    assert s.div_h(0).h_shift == 1


def test_copy_and_pickle_round_trips():
    rng = random.Random(2026)
    for n in range(1, 12):
        for h_shift in (-2, -1, 1, 3):
            s = DerivativeSeries(_sparse_series(rng, n).coeffs, h_shift)
            for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
                assert t == s and hash(t) == hash(s)
                assert t.h_shift == h_shift


@pytest.mark.parametrize("name", ["coeffs", "h_shift"])
def test_series_fields_are_frozen(name):
    s = DerivativeSeries.unit(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(s, name, getattr(s, name))
    assert s == DerivativeSeries.unit(2)


def _reference_combination(terms):
    """sum_i f_i * s_i written out coefficient by coefficient in QF."""
    n = min(len(s.coeffs) for _, s in terms)
    out = []
    for p in range(n):
        acc = QF(0)
        for f, s in terms:
            acc = acc + QF.coerce(f) * s.coeffs[p]
        out.append(acc)
    return DerivativeSeries(out, terms[0][1].h_shift)


def _factor(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return QF(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return QF.coerce(_sparse_series(rng, 1).coeffs[0])


def test_combination_matches_per_coefficient_reference():
    # mixed denominators, surd and zero factors, and lengths that truncate to the shortest
    rng = random.Random(26)
    for _ in range(300):
        h_shift = rng.randint(-2, 1)
        terms = [
            (_factor(rng), DerivativeSeries(_sparse_series(rng, rng.randint(1, 10)).coeffs, h_shift))
            for _ in range(rng.randint(1, 5))
        ]
        got = DerivativeSeries.combination(terms)
        assert got == _reference_combination(terms)
        assert got.order == min(s.order for _, s in terms)
        assert got.h_shift == h_shift
    s = DerivativeSeries([q(1, 2), 0, q(3)])
    assert DerivativeSeries.combination([(0, s), (QF(0), s)]) == DerivativeSeries([0, 0, 0])


def test_series_form_is_canonical():
    rng = random.Random(126)
    for n in range(1, 10):
        for _ in range(20):
            s, t = _sparse_series(rng, n), _sparse_series(rng, n)
            t = DerivativeSeries(t.coeffs, s.h_shift)
            total = DerivativeSeries.combination([(1, s), (1, t)])
            back = DerivativeSeries.combination([(1, total), (-1, t)])
            assert back == s and hash(back) == hash(s)
            assert (back.rows, back.den) == (s.rows, s.den)
            assert math.gcd(s.den, *(x for row in s.rows for x in row)) == 1 and s.den > 0
    built = DerivativeSeries([Fraction(2, 12), Fraction(6, 9), 0, Fraction(-10, 4)])
    scaled = DerivativeSeries.combination([(Fraction(1, 12), DerivativeSeries([2, 8, 0, -30]))])
    assert built == scaled and hash(built) == hash(scaled)
    assert (built.rows, built.den) == (scaled.rows, scaled.den)
    assert DerivativeSeries([0, 0]).den == 1
    zero = DerivativeSeries.combination([(0, DerivativeSeries([q(1, 3), 0]))])
    assert zero == DerivativeSeries([0, 0]) and zero.den == 1


def test_combination_requires_matching_h_shift():
    a = DerivativeSeries.unit(4)
    with pytest.raises(ValueError, match="h_shift"):
        DerivativeSeries.combination([(1, a), (QF(0), a.div_h())])
    with pytest.raises(ValueError, match="h_shift"):
        DerivativeSeries.combination([(1, a), (-1, a.div_h(2))])
    with pytest.raises(ValueError):
        DerivativeSeries.combination([])


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0, "1/2", None], ids=repr)
def test_coefficients_and_factors_must_be_rational(value):
    # True would read as 1 and 0.5 as a binary fraction
    with pytest.raises(TypeError):
        DerivativeSeries([value, 2])
    with pytest.raises(TypeError):
        DerivativeSeries.combination([(value, DerivativeSeries.unit(2))])


@pytest.mark.parametrize(
    "offset", [0.1, 0.5, 1.0, "1/2", True, False, None, QF(1)], ids=repr
)
def test_shift_offset_must_be_rational(offset):
    # Fraction(0.1) is 3602879701896397/2**55, and Fraction("1/2") parses text
    with pytest.raises(TypeError):
        DerivativeSeries.unit(4).shift(offset)


def test_numpy_integers_are_integers():
    np = pytest.importorskip("numpy")
    s = DerivativeSeries([np.int64(1), np.int32(-2), Fraction(1, 2)])
    assert s == DerivativeSeries([1, -2, Fraction(1, 2)])
    assert all(type(x) is int for row in s.rows for x in row)
    tripled = DerivativeSeries.combination([(np.int64(3), s)])
    assert tripled == DerivativeSeries.combination([(3, s)])
    assert all(type(x) is int for row in tripled.rows for x in row)
    assert DerivativeSeries.unit(4).shift(np.int64(-1)) == DerivativeSeries.unit(4).shift(-1)
