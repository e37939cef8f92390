"""Truncated formal derivative series with exact coefficients.

A DerivativeSeries represents

    sum_{p=0}^{order}  c_p * u^(p)(x) * h^(p + h_shift)

for a smooth function u, with c_p in Q[sqrt(3), sqrt(5)].  The index p does
triple duty: position in the coefficient tuple, derivative order, and
(together with the integer h_shift) the power of h.  Dividing by h never
touches the coefficients, it only decrements h_shift; this keeps the
coefficient/derivative pairing exact while the stencil algebra pulls out
1/h factors.

A series is a frozen record of its two fields, coeffs and h_shift, so it
compares, hashes, copies and pickles by them; the constructor coerces any
iterable of coefficients to a tuple of QF.  Binary operations truncate to
the shorter operand and require matching h_shift (adding series with
different h pairings would be a silent unit error, so it raises).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .numbers import ONE, QF, ZERO, RationalLike, checked_int


def _inv_factorial(n: int) -> Fraction:
    return Fraction(1, math.factorial(n))


@lru_cache(maxsize=None)
def _taylor_weights(off: Fraction, n: int) -> tuple[QF, ...]:
    """The Taylor weights off**q / q! for q < n."""
    return tuple(QF(off**q * _inv_factorial(q)) for q in range(n))


@dataclass(frozen=True)
class DerivativeSeries:
    """Immutable truncated series sum_p c_p * u^(p) * h^(p + h_shift)."""

    coeffs: tuple[QF, ...]
    h_shift: int = 0

    def __post_init__(self) -> None:
        tup = tuple(QF.coerce(c) for c in self.coeffs)
        if not tup:
            raise ValueError("series needs at least the p=0 coefficient")
        object.__setattr__(self, "coeffs", tup)
        object.__setattr__(self, "h_shift", checked_int(self.h_shift, "h_shift"))

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, order: int) -> DerivativeSeries:
        """The series of u(x) itself: c_0 = 1."""
        return cls([ONE] + [ZERO] * order, 0)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        """Highest derivative index the truncation still tracks exactly."""
        return len(self.coeffs) - 1

    def coefficient(self, p: int) -> QF:
        """Coefficient of u^(p); raises once the truncation is exhausted."""
        if p < 0:
            raise IndexError("derivative order must be nonnegative")
        if p > self.order:
            raise IndexError(
                f"coefficient u^({p}) lies beyond truncation order {self.order}; "
                "rebuild the series with a higher order"
            )
        return self.coeffs[p]

    def h_power(self, p: int) -> int:
        """Power of h paired with u^(p)."""
        return p + self.h_shift

    def leading(self) -> tuple[int, QF] | None:
        """(p, c_p) of the first nonzero term, or None for the zero series."""
        for p, coeff in enumerate(self.coeffs):
            if not coeff.is_zero():
                return p, coeff
        return None

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: DerivativeSeries) -> None:
        if self.h_shift != other.h_shift:
            raise ValueError(
                f"h_shift mismatch ({self.h_shift} vs {other.h_shift}); "
                "series with different h pairings cannot be combined"
            )

    def __add__(self, other: DerivativeSeries) -> DerivativeSeries:
        self._check_compatible(other)
        return DerivativeSeries(map(QF.__add__, self.coeffs, other.coeffs), self.h_shift)

    def __sub__(self, other: DerivativeSeries) -> DerivativeSeries:
        self._check_compatible(other)
        return DerivativeSeries(map(QF.__sub__, self.coeffs, other.coeffs), self.h_shift)

    def __neg__(self) -> DerivativeSeries:
        return DerivativeSeries([-c for c in self.coeffs], self.h_shift)

    def scaled(self, factor: QF | RationalLike) -> DerivativeSeries:
        f = QF.coerce(factor)
        return DerivativeSeries([c * f if c else c for c in self.coeffs], self.h_shift)

    def shift(self, offset: Fraction | int) -> DerivativeSeries:
        """Re-expand the series about x + offset*h (exact Taylor shift).

        u^(p)(x + offset*h) = sum_q u^(p+q)(x) * (offset*h)^q / q!, so the
        shifted coefficient at index r collects every p <= r.  The result is
        exact through the existing truncation order.
        """
        off = Fraction(offset)
        n = len(self.coeffs)
        weights = _taylor_weights(off, n)
        terms = [(p, c) for p, c in enumerate(self.coeffs) if c]
        out = []
        for r in range(n):
            acc = ZERO
            for p, c in terms:
                if p <= r:
                    acc = acc + c * weights[r - p]
            out.append(acc)
        return DerivativeSeries(out, self.h_shift)

    def div_h(self, power: int = 1) -> DerivativeSeries:
        """Divide by h**power: pure h bookkeeping, coefficients untouched."""
        return DerivativeSeries(self.coeffs, self.h_shift - checked_int(power, "power", 0))

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
