"""Truncated formal derivative series with exact coefficients.

A DerivativeSeries represents

    sum_{p=0}^{order}  c_p * u^(p)(x) * h^(p + h_shift)

for a smooth function u, with c_p in Q[sqrt(3), sqrt(5)].  The index p does
triple duty: position in the coefficient tuple, derivative order, and
(together with the integer h_shift) the power of h.  Dividing by h never
touches the coefficients, it only decrements h_shift; this keeps the
coefficient/derivative pairing exact while the stencil algebra pulls out
1/h factors.

Series are immutable; binary operations truncate to the shorter operand and
require matching h_shift (adding series with different h pairings would be
a silent unit error, so it raises).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from typing import Iterable, Mapping

from .numbers import ONE, QF, ZERO, RationalLike

#: Offsets, in units of h, that shift() accepts.  These are the only strides
#: the one-sided interface stencils and the half-cell evaluations use.
ALLOWED_OFFSETS = (
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
)


def _integer(value: int, name: str) -> int:
    """value as an int; ValueError for bools and non-integers instead of truncating."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _inv_factorial(n: int) -> Fraction:
    return Fraction(1, math.factorial(n))


@lru_cache(maxsize=None)
def _taylor_weights(off: Fraction, n: int) -> tuple[QF, ...]:
    """The Taylor weights off**q / q! for q < n."""
    return tuple(QF(off**q * _inv_factorial(q)) for q in range(n))


class DerivativeSeries:
    """Immutable truncated series sum_p c_p * u^(p) * h^(p + h_shift)."""

    __slots__ = ("_coeffs", "_h_shift")

    def __init__(
        self,
        coeffs: Iterable[QF | RationalLike],
        h_shift: int = 0,
    ) -> None:
        tup = tuple(QF.coerce(c) for c in coeffs)
        if not tup:
            raise ValueError("series needs at least the p=0 coefficient")
        object.__setattr__(self, "_coeffs", tup)
        object.__setattr__(self, "_h_shift", _integer(h_shift, "h_shift"))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DerivativeSeries is immutable")

    def __reduce__(self) -> tuple:
        # the default slot-state restore would go through __setattr__
        return DerivativeSeries, (self._coeffs, self._h_shift)

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, order: int) -> DerivativeSeries:
        """The series of u(x) itself: c_0 = 1."""
        return cls([ONE] + [ZERO] * order, 0)

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[int, QF | RationalLike],
        order: int,
        h_shift: int = 0,
    ) -> DerivativeSeries:
        coeffs = [ZERO] * (order + 1)
        for p, coeff in terms.items():
            if not 0 <= p <= order:
                raise ValueError(f"term index {p} outside truncation order {order}")
            coeffs[p] = QF.coerce(coeff)
        return cls(coeffs, h_shift)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        """Highest derivative index the truncation still tracks exactly."""
        return len(self._coeffs) - 1

    @property
    def h_shift(self) -> int:
        return self._h_shift

    @property
    def coeffs(self) -> tuple[QF, ...]:
        return self._coeffs

    def coefficient(self, p: int) -> QF:
        """Coefficient of u^(p); raises once the truncation is exhausted."""
        if p < 0:
            raise IndexError("derivative order must be nonnegative")
        if p > self.order:
            raise IndexError(
                f"coefficient u^({p}) lies beyond truncation order {self.order}; "
                "rebuild the series with a higher order"
            )
        return self._coeffs[p]

    def h_power(self, p: int) -> int:
        """Power of h paired with u^(p)."""
        return p + self._h_shift

    def leading(self) -> tuple[int, QF] | None:
        """(p, c_p) of the first nonzero term, or None for the zero series."""
        for p, coeff in enumerate(self._coeffs):
            if not coeff.is_zero():
                return p, coeff
        return None

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: DerivativeSeries) -> None:
        if self._h_shift != other._h_shift:
            raise ValueError(
                f"h_shift mismatch ({self._h_shift} vs {other._h_shift}); "
                "series with different h pairings cannot be combined"
            )

    def __add__(self, other: DerivativeSeries) -> DerivativeSeries:
        self._check_compatible(other)
        return DerivativeSeries(map(QF.__add__, self._coeffs, other._coeffs), self._h_shift)

    def __sub__(self, other: DerivativeSeries) -> DerivativeSeries:
        self._check_compatible(other)
        return DerivativeSeries(map(QF.__sub__, self._coeffs, other._coeffs), self._h_shift)

    def __neg__(self) -> DerivativeSeries:
        return DerivativeSeries([-c for c in self._coeffs], self._h_shift)

    def scaled(self, factor: QF | RationalLike) -> DerivativeSeries:
        f = QF.coerce(factor)
        return DerivativeSeries([c * f if c else c for c in self._coeffs], self._h_shift)

    def shift(self, offset: Fraction | int) -> DerivativeSeries:
        """Re-expand the series about x + offset*h (exact Taylor shift).

        u^(p)(x + offset*h) = sum_q u^(p+q)(x) * (offset*h)^q / q!, so the
        shifted coefficient at index r collects every p <= r.  The result is
        exact through the existing truncation order.  Offsets are restricted
        to the strides the stencils actually use (+-1, +-1/2).
        """
        off = Fraction(offset)
        if off not in ALLOWED_OFFSETS:
            raise ValueError(f"offset {off} not in {{+-1, +-1/2}}")
        n = len(self._coeffs)
        weights = _taylor_weights(off, n)
        terms = [(p, c) for p, c in enumerate(self._coeffs) if c]
        out = []
        for r in range(n):
            acc = ZERO
            for p, c in terms:
                if p <= r:
                    acc = acc + c * weights[r - p]
            out.append(acc)
        return DerivativeSeries(out, self._h_shift)

    def div_h(self, power: int = 1) -> DerivativeSeries:
        """Divide by h**power: pure h bookkeeping, coefficients untouched."""
        power = _integer(power, "power")
        if power < 0:
            raise ValueError("power must be nonnegative")
        return DerivativeSeries(self._coeffs, self._h_shift - power)

    def differentiated(self) -> DerivativeSeries:
        """d/dx of the series; every u^(p) h^q term becomes u^(p+1) h^q."""
        return DerivativeSeries((ZERO,) + self._coeffs, self._h_shift - 1)

    def truncated(self, order: int) -> DerivativeSeries:
        if order > self.order:
            raise IndexError(f"cannot extend truncation {self.order} to {order}")
        return DerivativeSeries(self._coeffs[: order + 1], self._h_shift)

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DerivativeSeries):
            return NotImplemented
        return self._h_shift == other._h_shift and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._coeffs, self._h_shift))

    def __repr__(self) -> str:
        terms = []
        for p, coeff in enumerate(self._coeffs):
            if coeff.is_zero():
                continue
            q = self.h_power(p)
            h_txt = "" if q == 0 else ("*h" if q == 1 else f"*h^{q}")
            terms.append(f"({coeff}){h_txt}*u^({p})")
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} + O(h^{self.order + 1 + self._h_shift})>"
