"""QF's product is its component table written out.

QF.__mul__ spells the product of Q(sqrt3, sqrt5) as one straight-line int
formula, while DerivativeSeries.combination and QF.reciprocal read the
table _PRODUCT.  This test expands every product through _PRODUCT over
Fractions, so the two encodings cannot drift apart.  It needs neither pytest
nor numpy: CI runs it through runpy on Pythons that have neither installed.
"""
import random
from fractions import Fraction
from math import gcd

from dgmodeq.exact.numbers import _PRODUCT, ONE, QF, SQRT3, SQRT5, SQRT15

UNITS = (ONE, SQRT3, SQRT5, SQRT15)
RANDOM_PAIRS = 2000
MAX_DEN = 10**12


def _table_product(x: QF, y: QF) -> QF:
    """x * y expanded through _PRODUCT, component by component, over Fractions."""
    acc = [Fraction(0)] * 4
    for xi, row in zip((x.a, x.b, x.c, x.d), _PRODUCT):
        for yj, (k, f) in zip((y.a, y.b, y.c, y.d), row):
            acc[k] += xi * yj * f
    return QF(*acc)


def _random_qf(rng: random.Random) -> QF:
    """Signed components over dens up to MAX_DEN, each zero one time in three."""
    return QF(*(
        0 if rng.random() < 1 / 3 else Fraction(rng.randint(-MAX_DEN, MAX_DEN), rng.randint(1, MAX_DEN))
        for _ in range(4)
    ))


def _is_canonical(q: QF) -> bool:
    return q._den > 0 and gcd(*q._n, q._den) == 1


def test_product_agrees_with_its_component_table():
    rng = random.Random(0)
    pairs = [(x, y) for x in UNITS for y in UNITS]
    pairs += [(_random_qf(rng), _random_qf(rng)) for _ in range(RANDOM_PAIRS)]
    for x, y in pairs:
        got = x * y
        assert got == _table_product(x, y), (x, y, got)
        assert _is_canonical(got), (x, y, got._n, got._den)
        assert y * x == got, (x, y)
