"""Arithmetic in Q(sqrt(3), sqrt(5)) must be exact, closed and total."""
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from dgmodeq.exact import QF
from dgmodeq.exact.numbers import ONE, SQRT3, SQRT5, SQRT15, ZERO


def test_surd_product_table():
    assert SQRT3 * SQRT3 == QF.rational(3)
    assert SQRT5 * SQRT5 == QF.rational(5)
    assert SQRT3 * SQRT5 == SQRT15
    assert SQRT3 * SQRT15 == QF.rational(3) * SQRT5
    assert SQRT5 * SQRT15 == QF.rational(5) * SQRT3
    assert SQRT15 * SQRT15 == QF.rational(15)


def test_conjugate_products():
    assert (ONE + SQRT3) * (ONE - SQRT3) == QF.rational(-2)
    s = SQRT3 + SQRT5
    assert s * s == QF.rational(8) + QF.rational(2) * SQRT15


def test_reciprocal_single_component():
    assert SQRT3.reciprocal() == QF(0, Fraction(1, 3), 0, 0)
    assert SQRT5.reciprocal() == QF(0, 0, Fraction(1, 5), 0)
    assert SQRT15.reciprocal() == QF(0, 0, 0, Fraction(1, 15))
    half = QF.rational(1, 2)
    assert half.reciprocal() == QF.rational(2)
    for x in (SQRT3, SQRT5, SQRT15, QF.rational(-7, 3)):
        assert x * x.reciprocal() == ONE


def test_reciprocal_of_random_single_components():
    rng = random.Random(23)
    for _ in range(2000):
        num = rng.choice([-1, 1]) * rng.randint(2, 99)
        value = Fraction(num, rng.randint(1, 99))
        if abs(value) == 1:
            value *= 2
        comps = [0, 0, 0, 0]
        comps[rng.randrange(4)] = value
        x = QF(*comps)
        inv = x.reciprocal()
        assert x * inv == ONE
        assert all(type(c) is Fraction for c in (inv.a, inv.b, inv.c, inv.d))


def test_reciprocal_rejects_mixed_and_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.reciprocal()
    with pytest.raises(ValueError):
        (ONE + SQRT3).reciprocal()


def _random_qf(rng):
    return QF(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_field_axioms_on_random_triples():
    # associativity, commutativity, distributivity over 1000 random triples
    rng = random.Random(20240517)
    for _ in range(1000):
        x, y, z = (_random_qf(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x - x == ZERO


def _dense_product(x, y):
    """All sixteen component products, written out."""
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return (
        a1 * a2 + 3 * b1 * b2 + 5 * c1 * c2 + 15 * d1 * d2,
        a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def _sparse_operand(rng):
    """A QF, int or Fraction; each QF component is zero with probability 1/2."""
    kind = rng.random()
    if kind < 0.1:
        return rng.randint(-9, 9)
    if kind < 0.2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return QF(*(
        Fraction(0) if rng.random() < 0.5 else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(4)
    ))


def _components(q):
    return (q.a, q.b, q.c, q.d)


def test_sparse_product_matches_dense_formula():
    rng = random.Random(20261018)
    for _ in range(2000):
        x, y = _sparse_operand(rng), _sparse_operand(rng)
        if not isinstance(x, QF) and not isinstance(y, QF):
            x = QF.coerce(x)
        product = x * y
        assert _components(product) == _dense_product(QF.coerce(x), QF.coerce(y))
        results = [product, x + y, x - y, y - x]
        results += [-q for q in (x, y) if isinstance(q, QF)]
        for result in results:
            assert all(type(c) is Fraction for c in _components(result)), repr(result)


def test_float_demotion_matches_components():
    import math

    x = QF(Fraction(1, 2), Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11))
    expected = 0.5 + math.sqrt(3) / 3 - 2 * math.sqrt(5) / 7 + 5 * math.sqrt(15) / 11
    assert float(x) == pytest.approx(expected, rel=1e-15)


def test_rational_value_and_predicates():
    assert QF.rational(3, 4).rational_value() == Fraction(3, 4)
    assert QF.rational(0).is_zero()
    assert not SQRT3.is_rational()
    with pytest.raises(ValueError):
        SQRT3.rational_value()


def test_division_by_rational():
    assert SQRT3 / 2 == QF(0, Fraction(1, 2), 0, 0)
    assert (QF.rational(6) * SQRT5) / QF.rational(3) == QF.rational(2) * SQRT5


def test_str_forms():
    assert str(QF.rational(1, 2)) == "1/2"
    assert str(SQRT3) == "sqrt(3)"
    assert str(QF.rational(-1, 6) * SQRT5) == "-1/6*sqrt(5)"
    assert str(ZERO) == "0"


def test_hash_consistent_with_eq():
    assert hash(QF.rational(2)) == hash(QF.rational(4, 2))
    d = {SQRT3: "a"}
    assert d[QF(0, 1, 0, 0)] == "a"


def test_immutability():
    with pytest.raises(AttributeError):
        SQRT3.b = Fraction(2)


def _kinded_qf(rng, kind):
    """A zero, rational, single-surd or mixed value."""
    def part():
        return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))

    if kind == "zero":
        return QF(0)
    if kind == "rational":
        return QF(part())
    if kind == "single":
        parts = [0, 0, 0, 0]
        parts[rng.randrange(4)] = part()
        return QF(*parts)
    return QF(*(part() for _ in range(4)))


@pytest.mark.parametrize("kind", ["zero", "rational", "single", "mixed"])
def test_copy_and_pickle_round_trips(kind):
    rng = random.Random(f"copy-{kind}")
    for _ in range(200):
        x = _kinded_qf(rng, kind)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            assert (y._n, y._den) == (x._n, x._den)


def test_coerce_accepts_int_fraction_qf():
    assert QF.coerce(2) == QF.rational(2)
    assert QF.coerce(Fraction(1, 3)) == QF.rational(1, 3)
    assert QF.coerce(SQRT5) is SQRT5
    with pytest.raises(TypeError):
        QF.coerce(0.5)


def test_hash_agrees_with_eq_for_rationals():
    rng = random.Random(8)
    values = [rng.randint(-10**6, 10**6) for _ in range(500)]
    values += [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(500)]
    for value in values + [0, 1, -1, Fraction(1, 2)]:
        assert QF(value) == value
        assert hash(QF(value)) == hash(value)
        assert len({QF(value), value}) == 1


def _parts(value):
    """Components of a QF, int or Fraction, by definition."""
    if isinstance(value, QF):
        return _components(value)
    return (Fraction(value), Fraction(0), Fraction(0), Fraction(0))


def test_arithmetic_matches_componentwise_definitions():
    # the zero-skipping paths of +, -, unary - and * against the plain formulas
    rng = random.Random(44)
    for _ in range(2000):
        x, y = QF.coerce(_sparse_operand(rng)), _sparse_operand(rng)
        px, py = _parts(x), _parts(y)
        cases = [
            (x + y, tuple(a + b for a, b in zip(px, py))),
            (y + x, tuple(a + b for a, b in zip(px, py))),
            (x - y, tuple(a - b for a, b in zip(px, py))),
            (y - x, tuple(b - a for a, b in zip(px, py))),
            (-x, tuple(-a for a in px)),
            (x * y, _dense_product(x, QF.coerce(y))),
            (y * x, _dense_product(x, QF.coerce(y))),
        ]
        for got, want in cases:
            assert isinstance(got, QF)
            assert _components(got) == want, (x, y, got)
            assert all(type(c) is Fraction for c in _components(got)), repr(got)


BIG = 10**30


def _big_fraction(rng, nonzero=False):
    while True:
        value = Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
        if value or not nonzero:
            return value


def _big_qf(rng):
    """A QF whose components are zero with probability 1/4, else up to 10**30 over 10**30."""
    return QF(*(Fraction(0) if rng.random() < 0.25 else _big_fraction(rng) for _ in range(4)))


def test_float_demotion_is_componentwise_for_large_values():
    rng = random.Random(1729)
    for _ in range(2000):
        x = _big_qf(rng)
        want = (
            float(x.a)
            + float(x.b) * math.sqrt(3)
            + float(x.c) * math.sqrt(5)
            + float(x.d) * math.sqrt(15)
        )
        assert float(x) == want, repr(x)


def _assert_same_value(got, want):
    assert got == want
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)
    # the stored form is canonical: int numerators over a positive int
    # denominator, all five coprime
    assert all(type(v) is int for v in got._n) and type(got._den) is int
    assert got._den > 0 and math.gcd(*got._n, got._den) == 1


def test_equal_values_from_different_routes_share_repr_and_hash():
    rng = random.Random(4099)
    for _ in range(2000):
        x = _big_qf(rng)
        comps = [0, 0, 0, 0]
        comps[rng.randrange(4)] = _big_fraction(rng, nonzero=True)
        y = QF(*comps)
        k = rng.randint(2, 10**6)
        for got in (
            x * y / y,
            (x + y) - y,
            -(-x),
            x * k / k,
            x.a + x.b * SQRT3 + x.c * SQRT5 + x.d * SQRT15,
        ):
            _assert_same_value(got, x)
        _assert_same_value(x - x, ZERO)
        r = _big_fraction(rng)
        for got in (
            QF.rational(r.numerator * k, r.denominator * k),
            QF.coerce(r),
            QF(r.numerator) / r.denominator,
            ZERO + r,
        ):
            _assert_same_value(got, QF(r))
    _assert_same_value(QF(Fraction(2, 4)), QF(Fraction(1, 2)))
    _assert_same_value(QF(0, Fraction(2, 4)), QF(0, Fraction(1, 2)))
    _assert_same_value(QF.rational(2, 4), QF(Fraction(1, 2)))
