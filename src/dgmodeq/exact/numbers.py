"""Exact arithmetic in the real field Q[sqrt(3), sqrt(5)].

Every value is (n0 + n1*sqrt(3) + n2*sqrt(5) + n3*sqrt(15)) / den with int
numerators and one positive int denominator, kept in lowest terms (the gcd
of all five is 1, and zero is ((0, 0, 0, 0), 1)), so two values are equal
exactly when their numerator tuples and denominators are.  That keeps the
products of the orthonormal P2 basis entries, traces and update-matrix
entries exact.  The component product table is closed:

    sqrt(3)*sqrt(5)  = sqrt(15)
    sqrt(3)*sqrt(15) = 3*sqrt(5)
    sqrt(5)*sqrt(15) = 5*sqrt(3)
    sqrt(15)**2      = 15

Sums, differences, products and quotients are plain int work followed by
one math.gcd normalisation; products loop over the nonzero components of
each operand only, through that table.  Fractions appear only at the
boundary: QF(...) and coerce accept ints and Fractions, and the a, b, c, d
components and rational_value() are Fractions.

Division is deliberately restricted to rational scalars and to
single-component values (the only reciprocals the derivations need, e.g.
1/(q*sqrt(3)) = (1/(3q))*sqrt(3)).  General quartic-field inversion is out
of scope and raises ValueError.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, sqrt

_SQRT3 = sqrt(3.0)
_SQRT5 = sqrt(5.0)
_SQRT15 = sqrt(15.0)

RationalLike = int | Fraction

_ZERO_N = (0, 0, 0, 0)

#: _PRODUCT[i][j] = (k, f): component i times component j is f times
#: component k, components ordered 1, sqrt(3), sqrt(5), sqrt(15).
_PRODUCT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 3), (3, 1), (2, 3)),
    ((2, 1), (3, 1), (0, 5), (1, 5)),
    ((3, 1), (2, 3), (1, 5), (0, 15)),
)


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class QF:
    """Immutable element of Q[sqrt(3), sqrt(5)]."""

    __slots__ = ("_n", "_den")

    def __init__(
        self,
        a: RationalLike = 0,
        b: RationalLike = 0,
        c: RationalLike = 0,
        d: RationalLike = 0,
    ) -> None:
        if type(b) is type(c) is type(d) is int and not (b or c or d):
            num, den = _ratio(a)
            _set_n(self, (num, 0, 0, 0))
            _set_den(self, den)
            return
        parts = [_ratio(a), _ratio(b), _ratio(c), _ratio(d)]
        # lowest-terms parts over the lcm of their denominators stay coprime
        den = lcm(*(q for _, q in parts))
        _set_n(self, tuple(p * (den // q) for p, q in parts))
        _set_den(self, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QF values are immutable")

    def __reduce__(self) -> tuple:
        # the default slot-state restore would go through __setattr__
        return QF, (self.a, self.b, self.c, self.d)

    @property
    def a(self) -> Fraction:
        """Rational component."""
        return Fraction(self._n[0], self._den)

    @property
    def b(self) -> Fraction:
        """sqrt(3) component."""
        return Fraction(self._n[1], self._den)

    @property
    def c(self) -> Fraction:
        """sqrt(5) component."""
        return Fraction(self._n[2], self._den)

    @property
    def d(self) -> Fraction:
        """sqrt(15) component."""
        return Fraction(self._n[3], self._den)

    @classmethod
    def rational(cls, num: RationalLike, den: RationalLike = 1) -> QF:
        p, q = _ratio(num)
        r, s = _ratio(den)
        return cls.coerce(Fraction(p * s, q * r))

    @classmethod
    def coerce(cls, value: QF | RationalLike) -> QF:
        if isinstance(value, QF):
            return value
        num, den = _ratio(value)
        return _new((num, 0, 0, 0), den)

    def is_rational(self) -> bool:
        n = self._n
        return not (n[1] or n[2] or n[3])

    def is_zero(self) -> bool:
        return self._n == _ZERO_N

    def rational_value(self) -> Fraction:
        """The value as a Fraction; ValueError if any surd component survives."""
        if not self.is_rational():
            raise ValueError(f"{self} has irrational components")
        return self.a

    def __add__(self, other: QF | RationalLike) -> QF:
        o = other if isinstance(other, QF) else QF.coerce(other)
        if o._n == _ZERO_N:
            return self
        if self._n == _ZERO_N:
            return o
        x0, x1, x2, x3 = self._n
        y0, y1, y2, y3 = o._n
        dx, dy = self._den, o._den
        if dx == dy:
            return _reduced(x0 + y0, x1 + y1, x2 + y2, x3 + y3, dx)
        return _reduced(
            x0 * dy + y0 * dx, x1 * dy + y1 * dx, x2 * dy + y2 * dx, x3 * dy + y3 * dx, dx * dy
        )

    __radd__ = __add__

    def __sub__(self, other: QF | RationalLike) -> QF:
        return self + -QF.coerce(other)

    def __rsub__(self, other: RationalLike) -> QF:
        return QF.coerce(other) + -self

    def __neg__(self) -> QF:
        n0, n1, n2, n3 = self._n
        return _new((-n0, -n1, -n2, -n3), self._den)

    def __mul__(self, other: QF | RationalLike) -> QF:
        o = other if isinstance(other, QF) else QF.coerce(other)
        right = [(j, y) for j, y in enumerate(o._n) if y]
        acc = [0, 0, 0, 0]
        for x, row in zip(self._n, _PRODUCT):
            if x:
                for j, y in right:
                    k, f = row[j]
                    acc[k] += x * y * f
        return _reduced(*acc, self._den * o._den)

    __rmul__ = __mul__

    def reciprocal(self) -> QF:
        """Exact reciprocal of a single-component value.

        Mixed values would need full quartic-field inversion, which nothing
        in the derivations requires; they raise ValueError.
        """
        nonzero = [k for k, x in enumerate(self._n) if x]
        if not nonzero:
            raise ZeroDivisionError("reciprocal of zero")
        if len(nonzero) != 1:
            raise ValueError(f"reciprocal of mixed value {self} is not supported")
        # 1/((x/den) e_k) = den e_k / (x f), where e_k * e_k = f
        k = nonzero[0]
        num, den = self._den, self._n[k] * _PRODUCT[k][k][1]
        if den < 0:
            num, den = -num, -den
        acc = [0, 0, 0, 0]
        acc[k] = num
        return _reduced(*acc, den)

    def __truediv__(self, other: QF | RationalLike) -> QF:
        o = QF.coerce(other)
        if not o.is_rational():
            return self * o.reciprocal()
        p, q = o._n[0], o._den
        if p == 0:
            raise ZeroDivisionError("division by zero")
        if p < 0:
            p, q = -p, -q
        n0, n1, n2, n3 = self._n
        return _reduced(n0 * q, n1 * q, n2 * q, n3 * q, self._den * p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QF.coerce(other)
        if not isinstance(other, QF):
            return NotImplemented
        return self._n == other._n and self._den == other._den

    def __hash__(self) -> int:
        # equal to hash(q) for a rational value q, since QF(q) == q
        if self.is_rational():
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self) -> bool:
        return self._n != _ZERO_N

    def __float__(self) -> float:
        # int / int is correctly rounded, so n/den demotes exactly as the
        # reduced Fraction component would
        n0, n1, n2, n3 = self._n
        den = self._den
        return n0 / den + (n1 / den) * _SQRT3 + (n2 / den) * _SQRT5 + (n3 / den) * _SQRT15

    def __repr__(self) -> str:
        return f"QF({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self) -> str:
        parts: list[str] = []
        for comp, name in (
            (self.a, None),
            (self.b, "sqrt(3)"),
            (self.c, "sqrt(5)"),
            (self.d, "sqrt(15)"),
        ):
            if comp == 0:
                continue
            if name is None:
                text = str(comp)
            elif comp == 1:
                text = name
            elif comp == -1:
                text = f"-{name}"
            else:
                text = f"{comp}*{name}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts) if parts else "0"


# Slot setters that bypass QF.__setattr__; only this module builds values.
_set_n = QF._n.__set__
_set_den = QF._den.__set__


def _new(n: tuple[int, int, int, int], den: int) -> QF:
    """A QF from numerators and a positive denominator already in lowest terms."""
    new = object.__new__(QF)
    _set_n(new, n)
    _set_den(new, den)
    return new


def _reduced(n0: int, n1: int, n2: int, n3: int, den: int) -> QF:
    """A QF from numerators and a positive denominator, brought to lowest terms."""
    g = gcd(n0, n1, n2, n3, den)
    if g != 1:
        return _new((n0 // g, n1 // g, n2 // g, n3 // g), den // g)
    return _new((n0, n1, n2, n3), den)


ZERO = QF(0)
ONE = QF(1)
SQRT3 = QF(0, 1)
SQRT5 = QF(0, 0, 1)
SQRT15 = QF(0, 0, 0, 1)
