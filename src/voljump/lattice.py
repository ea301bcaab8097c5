"""Exact arithmetic on the rank-11 Picard lattice of P^2 blown up at ten points.

The fixed basis is (H, E1, ..., E10): H is the pullback of the hyperplane
class, E1..E10 the exceptional classes.  The intersection form is diagonal
(+1, -1, ..., -1) in this basis.  All coefficients are exact rationals; no
float ever enters this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache
from math import lcm
from operator import mul

RANK = 11

#: Diagonal of the Gram matrix in the (H, E1..E10) basis: signature (1, 10).
GRAM_DIAGONAL = (1,) + (-1,) * 10

#: Coefficients of the canonical class -3H + E1 + ... + E10.
CANONICAL = (-3,) + (1,) * 10

LINE = (1, -1, -1, -1) + (0,) * 7  # the distinguished line class H - E1 - E2 - E3


@cache
def fraction_type() -> type:
    """`fractions.Fraction`, imported on first use (it loads `decimal` and `re`)."""
    from fractions import Fraction
    return Fraction


def as_fraction(x: int | Fraction) -> Fraction:
    fraction = fraction_type()
    if isinstance(x, fraction):
        return x
    if isinstance(x, int):
        return fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}")


class DivisorClass:
    """A divisor class as an exact coefficient vector over (H, E1..E10).

    Value type compared and hashed by its coefficients; arithmetic returns
    fresh instances.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction]):
        self.coeffs: tuple[Fraction, ...] = tuple(as_fraction(c) for c in coeffs)
        if len(self.coeffs) != RANK:
            raise ValueError(f"expected {RANK} coefficients, got {len(self.coeffs)}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, DivisorClass) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"DivisorClass({self.coeffs})"

    def integral_multiple(self) -> tuple[tuple[int, ...], int]:
        """(D * self as integers, D) for D the lcm of the denominators."""
        scale = lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (scale // c.denominator) for c in self.coeffs), scale

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-a for a in self.coeffs)

    def __rmul__(self, scalar: int | Fraction) -> "DivisorClass":
        s = as_fraction(scalar)
        return DivisorClass(s * a for a in self.coeffs)

    __mul__ = __rmul__

    def to_json_array(self) -> list[str]:
        """Serialize as 11 exact fraction strings "p/q" (never binary floats)."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    def __str__(self) -> str:
        names = ["H"] + [f"E{i}" for i in range(1, 11)]
        parts: list[str] = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            mag = abs(c)
            term = name if mag == 1 else f"{mag}*{name}"
            parts.append(("- " if c < 0 else "+ " if parts else "") + term)
        return " ".join(parts) if parts else "0"


def canonical_class() -> DivisorClass:
    """The canonical class -3H + E1 + ... + E10."""
    return DivisorClass(CANONICAL)


def standard_line() -> DivisorClass:
    """The distinguished line class H - E1 - E2 - E3 (self-intersection -2)."""
    return DivisorClass(LINE)


def pair(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Intersection pairing: a0*b0 - sum_{i=1..10} a_i*b_i, exact."""
    total = a.coeffs[0] * b.coeffs[0]
    for x, y in zip(a.coeffs[1:], b.coeffs[1:]):
        total -= x * y
    return total


def pair_integers(a: Sequence[int], b: Sequence[int]) -> int:
    """The pairing on bare integer coefficient vectors, for the hot loops."""
    return a[0] * b[0] - sum(map(mul, a[1:], b[1:]))

