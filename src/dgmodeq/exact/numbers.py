"""Exact arithmetic in the real field Q[sqrt(3), sqrt(5)].

Every value is a + b*sqrt(3) + c*sqrt(5) + d*sqrt(15) with Fraction
components, so products of the orthonormal P2 basis entries, traces and
update-matrix entries stay exact.  The component product table is closed:

    sqrt(3)*sqrt(5)  = sqrt(15)
    sqrt(3)*sqrt(15) = 3*sqrt(5)
    sqrt(5)*sqrt(15) = 5*sqrt(3)
    sqrt(15)**2      = 15

Products loop over the nonzero components of each operand only, through
that table, so the single-component values the derivations mostly multiply
cost one Fraction product instead of sixteen.  Arithmetic results are built
straight from the Fractions they already hold; only the public constructor
checks its arguments.

Division is deliberately restricted to rational scalars and to
single-component values (the only reciprocals the derivations need, e.g.
1/(q*sqrt(3)) = (1/(3q))*sqrt(3)).  General quartic-field inversion is out
of scope and raises ValueError.
"""
from __future__ import annotations

import math
from fractions import Fraction

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_SQRT15 = math.sqrt(15.0)

RationalLike = int | Fraction

_ZERO = Fraction(0)

#: _PRODUCT[i][j] = (k, f): component i times component j is f times
#: component k, components ordered 1, sqrt(3), sqrt(5), sqrt(15).
_PRODUCT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 3), (3, 1), (2, 3)),
    ((2, 1), (3, 1), (0, 5), (1, 5)),
    ((3, 1), (2, 3), (1, 5), (0, 15)),
)


def _frac(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class QF:
    """Immutable element of Q[sqrt(3), sqrt(5)]."""

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(
        self,
        a: RationalLike = 0,
        b: RationalLike = 0,
        c: RationalLike = 0,
        d: RationalLike = 0,
    ) -> None:
        object.__setattr__(self, "_a", _frac(a))
        object.__setattr__(self, "_b", _frac(b))
        object.__setattr__(self, "_c", _frac(c))
        object.__setattr__(self, "_d", _frac(d))

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> QF:
        """A QF from four Fractions, unchecked: arithmetic results only."""
        new = object.__new__(cls)
        object.__setattr__(new, "_a", a)
        object.__setattr__(new, "_b", b)
        object.__setattr__(new, "_c", c)
        object.__setattr__(new, "_d", d)
        return new

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QF values are immutable")

    @property
    def a(self) -> Fraction:
        """Rational component."""
        return self._a

    @property
    def b(self) -> Fraction:
        """sqrt(3) component."""
        return self._b

    @property
    def c(self) -> Fraction:
        """sqrt(5) component."""
        return self._c

    @property
    def d(self) -> Fraction:
        """sqrt(15) component."""
        return self._d

    @classmethod
    def rational(cls, num: RationalLike, den: RationalLike = 1) -> QF:
        return cls(Fraction(_frac(num), _frac(den)))

    @classmethod
    def coerce(cls, value: QF | RationalLike) -> QF:
        if isinstance(value, QF):
            return value
        return cls(_frac(value))

    def is_rational(self) -> bool:
        return self._b == 0 and self._c == 0 and self._d == 0

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0 and self._c == 0 and self._d == 0

    def rational_value(self) -> Fraction:
        """The value as a Fraction; ValueError if any surd component survives."""
        if not self.is_rational():
            raise ValueError(f"{self} has irrational components")
        return self._a

    def __add__(self, other: QF | RationalLike) -> QF:
        o = QF.coerce(other)
        return QF._of(self._a + o._a, self._b + o._b, self._c + o._c, self._d + o._d)

    __radd__ = __add__

    def __sub__(self, other: QF | RationalLike) -> QF:
        o = QF.coerce(other)
        return QF._of(self._a - o._a, self._b - o._b, self._c - o._c, self._d - o._d)

    def __rsub__(self, other: RationalLike) -> QF:
        return QF.coerce(other) - self

    def __neg__(self) -> QF:
        return QF._of(-self._a, -self._b, -self._c, -self._d)

    def __mul__(self, other: QF | RationalLike) -> QF:
        o = QF.coerce(other)
        right = (o._a, o._b, o._c, o._d)
        acc = [_ZERO, _ZERO, _ZERO, _ZERO]
        for x, row in zip((self._a, self._b, self._c, self._d), _PRODUCT):
            if x:
                for y, (k, f) in zip(right, row):
                    if y:
                        product = x * y
                        acc[k] += product if f == 1 else product * f
        return QF._of(*acc)

    __rmul__ = __mul__

    def reciprocal(self) -> QF:
        """Exact reciprocal of a single-component value.

        Mixed values would need full quartic-field inversion, which nothing
        in the derivations requires; they raise ValueError.
        """
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        comps = (self._a, self._b, self._c, self._d)
        nonzero = [k for k, x in enumerate(comps) if x]
        if len(nonzero) != 1:
            raise ValueError(f"reciprocal of mixed value {self} is not supported")
        # 1/(x e_k) = e_k / (x f), where e_k * e_k = f
        k = nonzero[0]
        acc = [_ZERO, _ZERO, _ZERO, _ZERO]
        acc[k] = 1 / (comps[k] * _PRODUCT[k][k][1])
        return QF._of(*acc)

    def __truediv__(self, other: QF | RationalLike) -> QF:
        o = QF.coerce(other)
        if o.is_rational():
            if o._a == 0:
                raise ZeroDivisionError("division by zero")
            return self * QF(1 / o._a)
        return self * o.reciprocal()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QF(other)
        if not isinstance(other, QF):
            return NotImplemented
        return (
            self._a == other._a
            and self._b == other._b
            and self._c == other._c
            and self._d == other._d
        )

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._c, self._d))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __float__(self) -> float:
        return (
            float(self._a)
            + float(self._b) * _SQRT3
            + float(self._c) * _SQRT5
            + float(self._d) * _SQRT15
        )

    def __repr__(self) -> str:
        return f"QF({self._a!r}, {self._b!r}, {self._c!r}, {self._d!r})"

    def __str__(self) -> str:
        parts: list[str] = []
        for comp, name in (
            (self._a, None),
            (self._b, "sqrt(3)"),
            (self._c, "sqrt(5)"),
            (self._d, "sqrt(15)"),
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


ZERO = QF(0)
ONE = QF(1)
SQRT3 = QF(0, 1)
SQRT5 = QF(0, 0, 1)
SQRT15 = QF(0, 0, 0, 1)
