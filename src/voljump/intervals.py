"""Certified interval arithmetic with exact rational endpoints.

A RealEnclosure is a closed interval [lo, hi] with Fraction endpoints that
provably contains one real quantity.  All operations here are outward-exact:
because endpoints are rationals, sums and products of enclosures enclose the
true results with no rounding step at all.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import CertificationError
from .lattice import RANK, DivisorClass, Rational, _as_fraction

_Operand = Union["RealEnclosure", int, Fraction]


class RealEnclosure:
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi.

    Value type compared and hashed by its endpoints.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rational, hi: Rational):
        if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
            lo, hi = _as_fraction(lo), _as_fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo: Fraction = lo
        self.hi: Fraction = hi

    def __eq__(self, other):
        if not isinstance(other, RealEnclosure):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"RealEnclosure({self.lo!r}, {self.hi!r})"

    @classmethod
    def exact(cls, value: Rational) -> "RealEnclosure":
        v = _as_fraction(value)
        return cls(v, v)

    # -- queries ------------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: Rational) -> bool:
        v = _as_fraction(value)
        return self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def is_positive(self) -> bool:
        """Certified strict positivity."""
        return self.lo > 0

    def is_negative(self) -> bool:
        return self.hi < 0

    def overlaps(self, other: "RealEnclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: _Operand) -> "RealEnclosure":
        o = _coerce(other)
        return RealEnclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "RealEnclosure":
        return RealEnclosure(-self.hi, -self.lo)

    def __sub__(self, other: _Operand) -> "RealEnclosure":
        return self + (-_coerce(other))

    def __rsub__(self, other: _Operand) -> "RealEnclosure":
        return _coerce(other) + (-self)

    def __mul__(self, other: _Operand) -> "RealEnclosure":
        o = _coerce(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return RealEnclosure(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: _Operand) -> "RealEnclosure":
        o = _coerce(other)
        if o.contains_zero():
            raise CertificationError(
                f"interval division by [{o.lo}, {o.hi}] straddling zero"
            )
        reciprocals = (1 / o.lo, 1 / o.hi)
        return self * RealEnclosure(min(reciprocals), max(reciprocals))

    def __rtruediv__(self, other: _Operand) -> "RealEnclosure":
        return _coerce(other) / self

    def square(self) -> "RealEnclosure":
        """Tight square (unlike self * self when the interval straddles 0)."""
        if self.contains_zero():
            return RealEnclosure(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))
        values = (self.lo * self.lo, self.hi * self.hi)
        return RealEnclosure(min(values), max(values))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _coerce(x: _Operand) -> RealEnclosure:
    if isinstance(x, RealEnclosure):
        return x
    return RealEnclosure.exact(x)


class ClassEnclosure:
    """Eleven coefficient enclosures over the (H, E1..E10) basis.

    Holds certified approximate divisor classes such as the dominant
    eigenvector H - sum r_i E_i or the nef witness H - sum t_i E_i.  Value
    type compared and hashed by its coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RealEnclosure]):
        self.coeffs: tuple[RealEnclosure, ...] = tuple(coeffs)
        if len(self.coeffs) != RANK:
            raise ValueError(f"expected {RANK} enclosures, got {len(self.coeffs)}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, ClassEnclosure) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ClassEnclosure({self.coeffs})"

    @classmethod
    def from_class(cls, divisor: DivisorClass) -> "ClassEnclosure":
        return cls(RealEnclosure.exact(c) for c in divisor.coeffs)

    def multipliers(self) -> tuple[RealEnclosure, ...]:
        """The ten positive multipliers m_i in H - sum m_i E_i (negated E-coeffs)."""
        return tuple(-c for c in self.coeffs[1:])

    def pair(self, other: Union["ClassEnclosure", DivisorClass]) -> RealEnclosure:
        """Intersection pairing with interval arithmetic."""
        if isinstance(other, DivisorClass):
            other = ClassEnclosure.from_class(other)
        total = self.coeffs[0] * other.coeffs[0]
        for x, y in zip(self.coeffs[1:], other.coeffs[1:]):
            total = total - x * y
        return total

    def self_pair(self) -> RealEnclosure:
        """Tight pairing of the class with itself (uses exact squares)."""
        total = self.coeffs[0].square()
        for c in self.coeffs[1:]:
            total = total - c.square()
        return total

    def multiplier_square_sum(self) -> RealEnclosure:
        """Sum of squared multipliers, sum m_i^2 (tight squares)."""
        total = RealEnclosure.exact(0)
        for c in self.coeffs[1:]:
            total = total + c.square()
        return total


def decimal_string(value: Fraction, digits: int) -> str:
    """Render an exact rational as a decimal string with `digits` places.

    Rounds half away from zero; fully deterministic (no float involved).
    """
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    sign = "-" if value < 0 else ""
    mag = -value if value < 0 else value
    scaled = mag * 10**digits
    units, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        units += 1
    text = str(units).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def enclosure_json(enc: RealEnclosure, digits: int = 40) -> dict:
    """JSON form of an enclosure: exact endpoints plus a convenience midpoint.

    The decimal midpoint is display-only and never feeds back into
    computation.
    """
    return {
        "lo": f"{enc.lo.numerator}/{enc.lo.denominator}",
        "hi": f"{enc.hi.numerator}/{enc.hi.denominator}",
        "mid": decimal_string(enc.midpoint, digits),
    }
