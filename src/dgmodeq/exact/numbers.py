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

Sums, differences and products are plain int work followed by one
math.gcd normalisation.  A product is that table written out as one
straight-line int formula, 16 int products; _PRODUCT stays the one table
that DerivativeSeries.combination and reciprocal read, and a test expands
every product through it.  A value built by _new skips the gcd, so it must
already be in lowest terms (the exact basis builds its constants that way,
with numerator 1 or +-1).  Fractions appear only at the
boundary: QF(...) and coerce accept any numbers.Rational that is not a
bool (int, Fraction, numpy integers), stored as plain ints, and the a, b,
c, d components and rational_value() are Fractions.  Only those calls,
and repr, import fractions (which loads decimal); str, ==, hash and the
arithmetic work on the ints, so importing the package loads neither.

x / y is x * y.reciprocal(), and reciprocal() is restricted to
single-component values, rationals included (the only reciprocals the
derivations need, e.g. 1/(q*sqrt(3)) = (1/(3q))*sqrt(3)).  General
quartic-field inversion is out of scope and raises ValueError.

The rules both routes share live here too: checked_int, checked_real and
checked_choice, the input rules for counts, real settings and named
choices, each returning the plain int, float or str its caller stores, and
Frozen, the base of every value type (QF and the exact StencilSpec,
ModifiedPDE and DerivativeSeries, and the float route's meshes, bases,
fields, integrators and configs).  It gives them what a frozen dataclass
would, without importing dataclasses.
"""
from __future__ import annotations

from math import gcd, inf, lcm, sqrt
from numbers import Integral, Rational, Real
from operator import attrgetter
from sys import hash_info

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

_SQRT3 = sqrt(3.0)
_SQRT5 = sqrt(5.0)
_SQRT15 = sqrt(15.0)

#: What QF and coerce take besides a QF: any Rational that is not a bool.
RationalLike = int | Rational

_ZERO_N = (0, 0, 0, 0)

#: _PRODUCT[i][j] = (k, f): component i times component j is f times
#: component k, components ordered 1, sqrt(3), sqrt(5), sqrt(15).
_PRODUCT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 3), (3, 1), (2, 3)),
    ((2, 1), (3, 1), (0, 5), (1, 5)),
    ((3, 1), (2, 3), (1, 5), (0, 15)),
)


def checked_int(value: int, name: str, low: float = -inf, high: float = inf) -> int:
    """value as an int if it is an Integral, not a bool, in [low, high]; else ValueError.

    int() would truncate 2.5 and read True as 1, and a cache keyed on 1.0 or True answers for 1.
    A plain int skips the Integral ABC check, which costs most of a call.
    """
    if type(value) is int and low <= value <= high:
        return value
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value <= high:
        span = f" from {low} to {high}" if high < inf else f" >= {low}" if low > -inf else ""
        raise ValueError(f"{name} must be an integer{span}, got {value!r}")
    return int(value)


def checked_choice(value: str, name: str, options: tuple[str, ...]) -> str:
    """The entry of options equal to value, else ValueError; like checked_int's int, the plain
    str comes back for an equal np.str_ or str subclass, so that keys no cache of its own."""
    if value in options:
        return options[options.index(value)]
    raise ValueError(f"{name} must be one of {options}, got {value!r}")


def checked_real(value: float, name: str, zero_ok: bool = False) -> float:
    """float(value) if value is a Real, not a bool, whose float is in (0, inf), or [0, inf) if
    zero_ok and value is 0; else ValueError.  Like checked_int's int, the plain float comes back,
    so a float32 or Fraction setting runs the float arithmetic of its value, not of its type."""
    if not isinstance(value, bool) and isinstance(value, Real):
        try:
            real = float(value)
        except OverflowError:  # an int or Fraction past the float range
            real = inf
        if 0.0 < real < inf or zero_ok and value == 0:
            return abs(real)  # -0.0 comes back as 0.0
    sign = "nonnegative" if zero_ok else "positive"
    raise ValueError(f"{name} must be {sign} and finite, got {value!r}")


class _DataclassFields:
    """dataclasses' field table of one Frozen class, built on first access and kept on the class.

    It answers the public protocol (is_dataclass, fields, replace, asdict)
    without importing dataclasses until a caller asks.
    """

    def __get__(self, obj: object, cls: type) -> dict:
        from dataclasses import make_dataclass

        table = make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
        cls.__dataclass_fields__ = table
        return table


class Frozen:
    """Base of the frozen value types: a frozen dataclass without generated code.

    A subclass's __init__ validates its arguments and stores them with
    vars(self).update, which bypasses the frozen __setattr__.  Its fields
    are that __init__'s parameters, in order.  They give repr, == and hash
    (a class that sets __eq__ and __hash__ to object's compares by
    identity), and copies and pickles go back through __init__.  Assignment
    and deletion raise dataclasses.FrozenInstanceError.  QF and
    DerivativeSeries, which their modules also build outside __init__,
    store a canonical form in slots through the slot descriptors instead.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # one C call reads every field (a single field's value alone): the key of == and hash
        cls._key = attrgetter(*cls._fields)
        cls.__dataclass_fields__ = _DataclassFields()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of a Rational that is not a bool, as plain ints in lowest terms.

    The rule of checked_int: True is not 1, and a numpy integer is an integer.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, Rational) and not isinstance(value, bool):
        num, den = int(value.numerator), int(value.denominator)
        if not den:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        return num // g, den // g
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _rational_hash(num: int, den: int) -> int:
    """hash(Fraction(num, den)) for num/den in lowest terms, den > 0.

    This is the language's hash of a rational number (the "Hashing of
    numeric types" section of the standard types reference), which int,
    Fraction, float and Decimal all follow.
    """
    modulus = hash_info.modulus
    value = abs(num) * pow(den, -1, modulus) % modulus if den % modulus else hash_info.inf
    value = value if num >= 0 else -value
    return -2 if value == -1 else value


class QF(Frozen):
    """Immutable element of Q[sqrt(3), sqrt(5)].

    Its fields are the components a, b, c, d; == and hash are its own, so
    that a rational value equals, and hashes as, its Fraction or int.
    """

    __slots__ = ("_n", "_den")

    def __init__(
        self,
        a: RationalLike = 0,
        b: RationalLike = 0,
        c: RationalLike = 0,
        d: RationalLike = 0,
    ) -> None:
        parts = [_ratio(a), _ratio(b), _ratio(c), _ratio(d)]
        # lowest-terms parts over the lcm of their denominators stay coprime
        den = lcm(*(q for _, q in parts))
        _set_n(self, tuple(p * (den // q) for p, q in parts))
        _set_den(self, den)

    @property
    def a(self) -> Fraction:
        """Rational component."""
        return self._fraction(0)

    @property
    def b(self) -> Fraction:
        """sqrt(3) component."""
        return self._fraction(1)

    @property
    def c(self) -> Fraction:
        """sqrt(5) component."""
        return self._fraction(2)

    @property
    def d(self) -> Fraction:
        """sqrt(15) component."""
        return self._fraction(3)

    def _fraction(self, k: int) -> Fraction:
        """Component k as a Fraction, importing fractions on the first call that hands one out."""
        from fractions import Fraction

        return Fraction(self._n[k], self._den)

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
        x0, x1, x2, x3 = self._n
        y0, y1, y2, y3 = o._n
        # _PRODUCT written out: component k collects every x_i * y_j that _PRODUCT sends to k
        return _reduced(
            x0 * y0 + 3 * x1 * y1 + 5 * x2 * y2 + 15 * x3 * y3,
            x0 * y1 + x1 * y0 + 5 * (x2 * y3 + x3 * y2),
            x0 * y2 + x2 * y0 + 3 * (x1 * y3 + x3 * y1),
            x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
            self._den * o._den,
        )

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
        return self * QF.coerce(other).reciprocal()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QF):
            if isinstance(other, bool) or not isinstance(other, Rational):
                return NotImplemented
            other = QF.coerce(other)
        return self._n == other._n and self._den == other._den

    def __hash__(self) -> int:
        # equal to hash(q) for a rational value q, since QF(q) == q
        if self.is_rational():
            return _rational_hash(self._n[0], self._den)
        return hash((self._n, self._den))

    def __bool__(self) -> bool:
        return self._n != _ZERO_N

    def __float__(self) -> float:
        # int / int is correctly rounded, so n/den demotes exactly as the
        # reduced Fraction component would
        n0, n1, n2, n3 = self._n
        den = self._den
        return n0 / den + (n1 / den) * _SQRT3 + (n2 / den) * _SQRT5 + (n3 / den) * _SQRT15

    def __repr__(self) -> str:
        from fractions import Fraction

        den = self._den
        return "QF({!r}, {!r}, {!r}, {!r})".format(*(Fraction(x, den) for x in self._n))

    def __str__(self) -> str:
        parts: list[str] = []
        for x, name in zip(self._n, (None, "sqrt(3)", "sqrt(5)", "sqrt(15)")):
            if not x:
                continue
            # the component in lowest terms, written as str(Fraction) writes it
            g = gcd(x, self._den)
            comp = str(x // g) if g == self._den else f"{x // g}/{self._den // g}"
            if name is None:
                text = comp
            elif comp == "1":
                text = name
            elif comp == "-1":
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


# Slot setters that bypass the frozen __setattr__; only this module builds values.
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
