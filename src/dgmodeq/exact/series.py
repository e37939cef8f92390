"""Truncated formal derivative series with exact coefficients.

A DerivativeSeries represents

    sum_{p=0}^{order}  c_p * u^(p)(x) * h^(p + h_shift)

for a smooth function u, with c_p in Q[sqrt(3), sqrt(5)].  The index p does
triple duty: position in the coefficient tuple, derivative order, and
(together with the integer h_shift) the power of h.  Dividing by h never
touches the coefficients, it only decrements h_shift; this keeps the
coefficient/derivative pairing exact while the stencil algebra pulls out
1/h factors.

A series is stored the way a QF is: rows[k][p] is the int numerator of
component k (1, sqrt(3), sqrt(5), sqrt(15)) of c_p, all over one positive
int denominator den, and the gcd of every entry and den is 1.  Like every
Frozen value, its fields are its constructor's parameters (coeffs, h_shift):
it compares, hashes, copies and pickles through them, and coeffs is the
tuple of QF that rows and den derive.  The constructor takes any iterable of
int, Fraction or QF coefficients.

The only arithmetic is combination, which forms sum_i f_i * s_i for QF
factors f_i with plain int row operations through the component product
table and one gcd at the end.  shift is a Toeplitz product with integer
Taylor weights over one denominator.  Combinations truncate to the
shortest operand and require matching h_shift (adding series with
different h pairings would be a silent unit error, so it raises).
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from functools import lru_cache
from itertools import repeat

from .numbers import _PRODUCT, ONE, QF, ZERO, Frozen, RationalLike, _ratio, _reduced, checked_int


@lru_cache(maxsize=None)
def _taylor_weights(num: int, den: int, n: int) -> tuple[tuple[int, ...], int]:
    """The Taylor weights (num/den)**q / q! for q < n, as int numerators over one denominator.

    That denominator, den**(n-1) * (n-1)!, need not be the least; shift's
    result is brought to lowest terms anyway.
    """
    last = n - 1
    fact = math.factorial(last)
    weights = tuple(num**q * den ** (last - q) * (fact // math.factorial(q)) for q in range(n))
    return weights, den**last * fact


def _series(rows, den: int, h_shift: int) -> DerivativeSeries:
    """A series from four numerator rows over a positive den, brought to lowest terms."""
    g = math.gcd(den, *rows[0], *rows[1], *rows[2], *rows[3])
    if g != 1:
        rows = [[x // g for x in row] for row in rows]
        den //= g
    new = object.__new__(DerivativeSeries)
    # tuple() of a tuple is that tuple, so rows already in lowest terms are shared
    _set_rows(new, tuple(map(tuple, rows)))
    _set_den(new, den)
    _set_h_shift(new, h_shift)
    return new


class DerivativeSeries(Frozen):
    """Immutable truncated series sum_p c_p * u^(p) * h^(p + h_shift).

    Its fields are coeffs and h_shift; it stores the canonical rows and den,
    which _series, the fast constructor of this module, fills directly.
    """

    __slots__ = ("rows", "den", "h_shift")

    def __init__(self, coeffs: Iterable[QF | RationalLike], h_shift: int = 0) -> None:
        values = [QF.coerce(c) for c in coeffs]
        if not values:
            raise ValueError("series needs at least the p=0 coefficient")
        # lowest-terms values over the lcm of their denominators stay coprime
        den = math.lcm(*(c._den for c in values))
        rows = tuple(tuple(c._n[k] * (den // c._den) for c in values) for k in range(4))
        _set_rows(self, rows)
        _set_den(self, den)
        _set_h_shift(self, checked_int(h_shift, "h_shift"))

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, order: int) -> DerivativeSeries:
        """The series of u(x) itself: c_0 = 1, tracked through u^(order)."""
        return cls([ONE] + [ZERO] * checked_int(order, "order", 0), 0)

    @staticmethod
    def combination(
        terms: Iterable[tuple[QF | RationalLike, DerivativeSeries]],
    ) -> DerivativeSeries:
        """sum_i f_i * s_i over (f_i, s_i) pairs, truncated to the shortest s_i.

        Every term is brought over the lcm of the factor-times-series
        denominators, the component products follow the QF product table, and
        the sum is reduced once.
        """
        terms = [(QF.coerce(f), s) for f, s in terms]
        if not terms:
            raise ValueError("a combination needs at least one term")
        h_shift = terms[0][1].h_shift
        for _, s in terms:
            if s.h_shift != h_shift:
                raise ValueError(
                    f"h_shift mismatch ({h_shift} vs {s.h_shift}); "
                    "series with different h pairings cannot be combined"
                )
        n = min(len(s.rows[0]) for _, s in terms)
        terms = [(f, s) for f, s in terms if f]
        den = math.lcm(*(f._den * s.den for f, s in terms))
        acc = [[0] * n for _ in range(4)]
        for f, s in terms:
            scale = den // (f._den * s.den)
            for x, products in zip(f._n, _PRODUCT):
                if x:
                    for row, (k, mult) in zip(s.rows, products):
                        if any(row):
                            c = x * mult * scale
                            acc[k] = [a + c * y for a, y in zip(acc[k], row)]
        return _series(acc, den, h_shift)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[QF, ...]:
        """The coefficients c_0 .. c_order as QF values."""
        return tuple(map(_reduced, *self.rows, repeat(self.den)))

    @property
    def order(self) -> int:
        """Highest derivative index the truncation still tracks exactly."""
        return len(self.rows[0]) - 1

    def coefficient(self, p: int) -> QF:
        """Coefficient of u^(p); IndexError once the truncation is exhausted."""
        p = checked_int(p, "p", 0)
        if p > self.order:
            raise IndexError(
                f"coefficient u^({p}) lies beyond truncation order {self.order}; "
                "rebuild the series with a higher order"
            )
        r0, r1, r2, r3 = self.rows
        return _reduced(r0[p], r1[p], r2[p], r3[p], self.den)

    def h_power(self, p: int) -> int:
        """Power of h paired with u^(p)."""
        return checked_int(p, "p", 0) + self.h_shift

    def leading(self) -> tuple[int, QF] | None:
        """(p, c_p) of the first nonzero term, or None for the zero series."""
        for p, column in enumerate(zip(*self.rows)):
            if any(column):
                return p, self.coefficient(p)
        return None

    # -- algebra -----------------------------------------------------------

    def shift(self, offset: RationalLike) -> DerivativeSeries:
        """Re-expand the series about x + offset*h (exact Taylor shift).

        u^(p)(x + offset*h) = sum_q u^(p+q)(x) * (offset*h)^q / q!, so the
        shifted coefficient at index r collects every p <= r.  The result is
        exact through the existing truncation order.  offset follows the
        rule of QF: an int or Fraction (any Rational but a bool), never a
        float or a string.
        """
        return self._shift(*_ratio(offset))

    def _shift(self, num: int, den: int) -> DerivativeSeries:
        """shift by num/den, given in lowest terms with den > 0."""
        n = len(self.rows[0])
        weights, w_den = _taylor_weights(num, den, n)
        out = []
        for row in self.rows:
            terms = [(p, x) for p, x in enumerate(row) if x]
            if not terms:
                out.append(row)
                continue
            out.append(
                [sum(x * weights[r - p] for p, x in terms if p <= r) for r in range(n)]
            )
        return _series(out, self.den * w_den, self.h_shift)

    def div_h(self, power: int = 1) -> DerivativeSeries:
        """Divide by h**power: pure h bookkeeping, coefficients untouched."""
        return _series(self.rows, self.den, self.h_shift - checked_int(power, "power", 0))

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        terms = []
        for p, coeff in enumerate(self.coeffs):
            if coeff.is_zero():
                continue
            q = self.h_power(p)
            h_txt = "" if q == 0 else ("*h" if q == 1 else f"*h^{q}")
            terms.append(f"({coeff}){h_txt}*u^({p})")
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} + O(h^{self.order + 1 + self.h_shift})>"


# Slot setters that bypass the frozen __setattr__; only this module builds series.
_set_rows = DerivativeSeries.rows.__set__
_set_den = DerivativeSeries.den.__set__
_set_h_shift = DerivativeSeries.h_shift.__set__
