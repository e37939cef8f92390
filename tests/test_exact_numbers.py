"""Arithmetic in Q(sqrt(3), sqrt(5)) must be exact, closed and total."""
import copy
import dataclasses
import importlib.util
import inspect
import math
import pickle
import pkgutil
import random
import sys
from fractions import Fraction
from numbers import Rational
from pathlib import Path

import pytest

from dgmodeq.exact import (
    EXACT_POINT,
    MODES,
    QF,
    UPWIND_TRACE,
    DerivativeSeries,
    ModifiedPDE,
    StencilSpec,
    correction_series,
    moment_evolution_laws,
)
from dgmodeq.exact.numbers import ONE, SQRT3, SQRT5, SQRT15, ZERO, Frozen, checked_int


def R(p, q=1):
    return QF(Fraction(p, q))


def test_surd_product_table():
    assert SQRT3 * SQRT3 == R(3)
    assert SQRT5 * SQRT5 == R(5)
    assert SQRT3 * SQRT5 == SQRT15
    assert SQRT3 * SQRT15 == R(3) * SQRT5
    assert SQRT5 * SQRT15 == R(5) * SQRT3
    assert SQRT15 * SQRT15 == R(15)


def test_conjugate_products():
    assert (ONE + SQRT3) * (ONE - SQRT3) == R(-2)
    s = SQRT3 + SQRT5
    assert s * s == R(8) + R(2) * SQRT15


def test_reciprocal_single_component():
    assert SQRT3.reciprocal() == QF(0, Fraction(1, 3), 0, 0)
    assert SQRT5.reciprocal() == QF(0, 0, Fraction(1, 5), 0)
    assert SQRT15.reciprocal() == QF(0, 0, 0, Fraction(1, 15))
    half = R(1, 2)
    assert half.reciprocal() == R(2)
    for x in (SQRT3, SQRT5, SQRT15, R(-7, 3)):
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
    assert R(3, 4).rational_value() == Fraction(3, 4)
    assert R(0).is_zero()
    assert not SQRT3.is_rational()
    with pytest.raises(ValueError):
        SQRT3.rational_value()


def test_division_by_rational():
    assert SQRT3 / 2 == QF(0, Fraction(1, 2), 0, 0)
    assert (R(6) * SQRT5) / R(3) == R(2) * SQRT5


def test_str_forms():
    assert str(R(1, 2)) == "1/2"
    assert str(SQRT3) == "sqrt(3)"
    assert str(R(-1, 6) * SQRT5) == "-1/6*sqrt(5)"
    assert str(ZERO) == "0"
    assert str(QF(0, -1)) == "-sqrt(3)"
    assert str(QF(1, 0, -2)) == "1 - 2*sqrt(5)"


def test_hash_consistent_with_eq():
    assert hash(R(2)) == hash(R(4, 2))
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
    assert QF.coerce(2) == R(2)
    assert QF.coerce(Fraction(1, 3)) == R(1, 3)
    assert QF.coerce(SQRT5) is SQRT5
    with pytest.raises(TypeError):
        QF.coerce(0.5)


@pytest.mark.parametrize(
    "value",
    [0, 1, -7, 2**70, Fraction(-6, 4), Fraction(1, 3), Fraction(0, 5),
     ("int64", -3), ("int32", 12), ("uint8", 200), True],
    ids=repr,
)
def test_qf_of_one_rational_is_coerce(value):
    # QF(q) and QF.coerce(q) share one rule and one stored form
    if isinstance(value, tuple):
        name, raw = value
        value = getattr(pytest.importorskip("numpy"), name)(raw)
    if value is True:
        for build in (QF, QF.coerce):
            with pytest.raises(TypeError):
                build(value)
        return
    built, coerced = QF(value), QF.coerce(value)
    assert built == coerced and built.rational_value() == Fraction(value)
    assert (built._n, built._den) == (coerced._n, coerced._den)
    assert all(type(v) is int for v in (*built._n, built._den))


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
            R(r.numerator * k, r.denominator * k),
            QF.coerce(r),
            QF(r.numerator) / r.denominator,
            ZERO + r,
        ):
            _assert_same_value(got, QF(r))
    _assert_same_value(QF(Fraction(2, 4)), QF(Fraction(1, 2)))
    _assert_same_value(QF(0, Fraction(2, 4)), QF(0, Fraction(1, 2)))
    _assert_same_value(R(2, 4), QF(Fraction(1, 2)))


@pytest.mark.parametrize("value", [True, False], ids=repr)
def test_bools_are_not_numbers(value):
    # checked_int's rule: True is not 1, in any component or operand
    for build in (
        lambda: QF(value),
        lambda: QF(0, value),
        lambda: QF(1, 0, 0, value),
        lambda: QF.coerce(value),
        lambda: ONE / value,
        lambda: ONE * value,
        lambda: ONE + value,
        lambda: value - ONE,
    ):
        with pytest.raises(TypeError):
            build()
    assert (ONE == value) is False and (ZERO == value) is False
    assert ONE != value


def test_numpy_integers_are_stored_as_ints():
    np = pytest.importorskip("numpy")
    x = QF(np.int64(3), np.int32(-2), Fraction(1, 2), np.int16(0))
    assert x == QF(3, -2, Fraction(1, 2), 0)
    assert all(type(v) is int for v in (*x._n, x._den))
    assert QF.coerce(np.int64(7)) == 7 and type(QF.coerce(np.int64(7))._n[0]) is int
    assert ONE / np.int64(4) == R(1, 4)
    assert R(5) == np.int64(5)


@pytest.mark.parametrize(
    "make, bounds, expected",
    [
        (lambda np: 5, (0,), 5),
        (lambda np: 0, (0,), 0),
        (lambda np: -7, (), -7),
        (lambda np: 2, (1, 2), 2),
        (lambda np: 10**30, (0,), 10**30),
        (lambda np: np.int64(4), (0,), 4),
        (lambda np: np.uint8(3), (1, 3), 3),
        (lambda np: -1, (0,), "n must be an integer >= 0"),
        (lambda np: 3, (1, 2), "n must be an integer from 1 to 2"),
        (lambda np: True, (0,), "n must be an integer >= 0"),
        (lambda np: False, (), "n must be an integer"),
        (lambda np: np.int64(-4), (0,), "n must be an integer >= 0"),
        (lambda np: np.bool_(True), (0,), "n must be an integer >= 0"),
        (lambda np: 2.0, (0,), "n must be an integer >= 0"),
        (lambda np: 2.5, (), "n must be an integer"),
        (lambda np: Fraction(2), (0,), "n must be an integer >= 0"),
        (lambda np: "3", (0,), "n must be an integer >= 0"),
        (lambda np: math.nan, (), "n must be an integer"),
    ],
)
def test_checked_int_rules(make, bounds, expected):
    # a plain int takes the fast path; everything else the Integral rule, with one message
    np = pytest.importorskip("numpy")
    value = make(np)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            checked_int(value, "n", *bounds)
        assert str(info.value) == f"{expected}, got {value!r}"
    else:
        got = checked_int(value, "n", *bounds)
        assert got == expected and type(got) is int


# ----------------------------------------------------------------------
# Frozen, the one frozen-value rule of both routes: each type builds two
# equal values, a different one, and names the field a replace changes.


def _integrator(cfl):
    return pytest.importorskip("dgmodeq.timestepping").Integrator("ssprk2", cfl)


FROZEN_TYPES = {
    "QF": (lambda: QF(1, Fraction(1, 2), 0, -3), lambda: QF(1, Fraction(1, 2), 2, -3)),
    "StencilSpec": (lambda: StencilSpec(2, EXACT_POINT, 9), lambda: StencilSpec(2, EXACT_POINT)),
    "ModifiedPDE": (
        lambda: ModifiedPDE(1, 0, UPWIND_TRACE, (Fraction(-1), Fraction(0), Fraction(1, 24))),
        lambda: ModifiedPDE(1, 1, UPWIND_TRACE, (Fraction(-1), Fraction(0), Fraction(1, 24))),
    ),
    "DerivativeSeries": (
        lambda: DerivativeSeries([1, Fraction(1, 2), SQRT3], h_shift=-1),
        lambda: DerivativeSeries([1, Fraction(1, 2), SQRT5], h_shift=-1),
    ),
    "Integrator": (lambda: _integrator(0.2), lambda: _integrator(0.3)),
}
FIELDS = {
    "QF": ("a", "b", "c", "d"),
    "StencilSpec": ("degree", "mode", "order"),
    "ModifiedPDE": ("degree", "moment", "mode", "coeffs"),
    "DerivativeSeries": ("coeffs", "h_shift"),
    "Integrator": ("method", "cfl", "t_final"),
}


@pytest.mark.parametrize("kind", FROZEN_TYPES)
def test_frozen_values_refuse_assignment_and_deletion(kind):
    value = FROZEN_TYPES[kind][0]()
    for name in (*FIELDS[kind], "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == FROZEN_TYPES[kind][0]()


@pytest.mark.parametrize("kind", FROZEN_TYPES)
def test_frozen_values_compare_and_hash_by_value(kind):
    make, make_other = FROZEN_TYPES[kind]
    value, twin, other = make(), make(), make_other()
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert value != other and len({value, twin, other}) == 2
    assert value != tuple(getattr(value, name) for name in FIELDS[kind])


@pytest.mark.parametrize("kind", FROZEN_TYPES)
def test_frozen_values_copy_and_pickle(kind):
    value = FROZEN_TYPES[kind][0]()
    for dup in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(dup) is type(value)
        assert dup == value and hash(dup) == hash(value) and repr(dup) == repr(value)


def _record(value):
    """What dataclasses.asdict makes of value: a Frozen one as a dict of its fields, nested."""
    if isinstance(value, Frozen):
        return {name: _record(getattr(value, name)) for name in type(value)._fields}
    return tuple(map(_record, value)) if type(value) is tuple else value


@pytest.mark.parametrize("kind", FROZEN_TYPES)
def test_frozen_values_answer_the_dataclass_protocol(kind):
    value = FROZEN_TYPES[kind][0]()
    assert dataclasses.is_dataclass(value) and dataclasses.is_dataclass(type(value))
    assert tuple(f.name for f in dataclasses.fields(value)) == FIELDS[kind] == type(value)._fields
    assert dataclasses.asdict(value) == _record(value)
    assert dataclasses.replace(value) == value
    other = FROZEN_TYPES[kind][1]()
    changed = {name: getattr(other, name) for name in FIELDS[kind]}
    assert dataclasses.replace(value, **changed) == other


def test_replace_rebuilds_a_series_from_its_coefficients():
    unit = DerivativeSeries.unit(2)
    assert dataclasses.replace(unit, h_shift=1) == DerivativeSeries(unit.coeffs, 1)


def _frozen_classes(cls=Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from _frozen_classes(sub)


def test_every_frozen_class_is_a_record_of_its_constructor():
    # every module of the package, float route included, so no value type is missed
    pytest.importorskip("numpy")
    import dgmodeq

    for info in pkgutil.walk_packages(dgmodeq.__path__, "dgmodeq."):
        importlib.import_module(info.name)
    path = Path(__file__).with_name("test_mesh_field.py")
    spec = importlib.util.spec_from_file_location("_frozen_float_values", path)
    float_values = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(float_values)
    samples = {
        name: make for name, (make, *_) in {**FROZEN_TYPES, **float_values.FROZEN_VALUES}.items()
    }
    classes = {c for c in _frozen_classes() if c.__module__.startswith("dgmodeq.")}
    assert {c.__name__ for c in classes} == samples.keys()
    for cls in classes:
        sample = samples[cls.__name__]()
        assert type(sample) is cls
        assert cls._fields == tuple(inspect.signature(cls.__init__).parameters)[1:]
        rebuilt = dataclasses.replace(sample)
        assert type(rebuilt) is cls and repr(rebuilt) == repr(sample)


def test_frozen_base_is_no_dataclass_and_subclasses_keep_their_own_fields():
    class Point(Frozen):
        def __init__(self, x):
            vars(self).update(x=x)

    class Labelled(Point):
        def __init__(self, x, label):
            vars(self).update(x=x, label=label)

    assert not dataclasses.is_dataclass(Frozen)
    assert [f.name for f in dataclasses.fields(Point)] == ["x"]
    assert [f.name for f in dataclasses.fields(Labelled)] == ["x", "label"]
    assert dataclasses.replace(Labelled(1, "a"), label="b") == Labelled(1, "b")
    assert Point(1) != Labelled(1, "a") and Point(1) == Point(1)


# ----------------------------------------------------------------------
# the Fraction boundary: the core computes in ints, its public values are Fractions


def test_components_and_rational_value_are_fractions():
    x = QF(Fraction(1, 2), -3, Fraction(2, 6), 0)
    parts = (x.a, x.b, x.c, x.d)
    assert parts == (Fraction(1, 2), Fraction(-3), Fraction(1, 3), Fraction(0))
    assert all(type(c) is Fraction for c in parts)
    value = R(-6, 4).rational_value()
    assert type(value) is Fraction and value == Fraction(-3, 2)


def test_laws_and_correction_lead_are_fractions():
    for degree in (0, 1, 2):
        for mode in MODES:
            for law in moment_evolution_laws(StencilSpec(degree, mode)):
                assert all(type(c) is Fraction for c in law.coeffs), law
    law = moment_evolution_laws(StencilSpec(1, UPWIND_TRACE))[1]
    assert law.coeffs[:2] == (Fraction(0), Fraction(-2, 5))
    lead = correction_series().leading()[1].rational_value()
    assert type(lead) is Fraction and lead == Fraction(1, 96)


def test_rational_hash_is_the_numeric_hash():
    modulus = sys.hash_info.modulus
    values = [0, 1, -1, -2, modulus, -modulus, modulus - 1, 2**64 + 3, Fraction(-1, 2),
              Fraction(1, modulus), Fraction(-3, 2 * modulus), Fraction(modulus, 7),
              Fraction(2**70 + 1, 3**40)]
    for value in values:
        assert QF(value) == value and hash(QF(value)) == hash(value), value


def test_numpy_integers_hash_as_their_values():
    np = pytest.importorskip("numpy")
    for value in (np.int64(-7), np.int64(-1), np.int32(12), np.uint8(200)):
        assert hash(QF(value)) == hash(value) == hash(int(value))


def test_irrational_hash_is_the_stored_record():
    x = QF(Fraction(1, 2), 3, 0, Fraction(-5, 7))
    assert hash(x) == hash((x._n, x._den))
    for dup in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert dup == x and hash(dup) == hash(x)


@pytest.mark.parametrize(
    "make, name",
    [(lambda np: True, "bool"), (lambda np: 0.5, "float"), (lambda np: "1", "str"),
     (lambda np: np.float64(0.5), "float64")],
    ids=["True", "0.5", "'1'", "float64"],
)
def test_non_rationals_name_their_type(make, name):
    value = make(pytest.importorskip("numpy") if name == "float64" else None)
    message = f"^expected an int or Fraction, got {name}$"
    for build in (lambda: QF(value), lambda: QF.coerce(value)):
        with pytest.raises(TypeError, match=message):
            build()
    if name == "float":
        with pytest.raises(TypeError, match=message):
            DerivativeSeries.unit(3).shift(value)


class _Ratio:
    """A bare Rational: numerator and denominator, not necessarily in lowest terms."""

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator


Rational.register(_Ratio)


def test_other_rationals_are_stored_in_lowest_terms():
    x = QF(_Ratio(2, -4))
    assert x == Fraction(-1, 2) and (x._n, x._den) == ((-1, 0, 0, 0), 2)
    with pytest.raises(ZeroDivisionError, match=r"Fraction\(1, 0\)"):
        QF(_Ratio(1, 0))
