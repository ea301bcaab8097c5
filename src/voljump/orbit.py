"""Orbits of divisor classes under the composite map.

Iterating the exact integer matrix keeps every orbit computation exact, so
distinctness of orbit classes, self-intersections and canonical degrees are
checked with no tolerance at all.  The walk itself runs on bare integers:
T is linear, so it steps the integral class D * seed (D the lcm of the
seed's denominators) and divides by D only when it builds a record.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .lattice import DivisorClass, canonical_class, pair_integers
from .transform import LatticeIsometry, apply_integers, composite_T

_CANONICAL, _ = canonical_class().integral_multiple()


class OrbitRecord(NamedTuple):
    """One orbit step: the class T^n(seed) with its basic invariants."""

    n: int
    divisor: DivisorClass
    self_intersection: Fraction
    canonical_degree: Fraction

    @classmethod
    def of(cls, n: int, vector: tuple[int, ...], scale: int) -> "OrbitRecord":
        """The record of the class vector / scale, paired in integers."""
        return cls(
            n,
            DivisorClass(Fraction(c, scale) for c in vector),
            Fraction(pair_integers(vector, vector), scale * scale),
            Fraction(pair_integers(vector, _CANONICAL), scale),
        )


def iterate(
    seed: DivisorClass, n: int, transform: LatticeIsometry | None = None
) -> OrbitRecord:
    """The class T^n(seed), computed by repeated squaring of the matrix."""
    if n < 0:
        raise ValueError("orbit index must be nonnegative")
    t = transform if transform is not None else composite_T()
    vector, scale = seed.integral_multiple()
    return OrbitRecord.of(n, apply_integers(t.power(n), vector), scale)


def orbit(
    seed: DivisorClass, count: int, transform: LatticeIsometry | None = None
) -> Iterator[OrbitRecord]:
    """Records for T^0(seed) .. T^{count-1}(seed), by naive stepping."""
    if count < 0:
        raise ValueError("orbit length must be nonnegative")
    t = transform if transform is not None else composite_T()
    current, scale = seed.integral_multiple()
    for n in range(count):
        yield OrbitRecord.of(n, current, scale)
        current = apply_integers(t, current)


class DistinctnessResult(NamedTuple):
    distinct: bool
    collision: tuple[int, int] | None = None  # first (n, m) with equal classes


def verify_distinct(
    seed: DivisorClass, count: int, transform: LatticeIsometry | None = None
) -> DistinctnessResult:
    """Exact pairwise distinctness of T^0(seed) .. T^{count-1}(seed)."""
    if count < 1:
        raise ValueError("need at least one orbit element")
    return distinctness(orbit(seed, count, transform))


def distinctness(records: Iterable[OrbitRecord]) -> DistinctnessResult:
    """Exact pairwise distinctness of the classes of orbit records."""
    seen: dict[tuple[Fraction, ...], int] = {}
    for record in records:
        key = record.divisor.coeffs
        if key in seen:
            return DistinctnessResult(False, (seen[key], record.n))
        seen[key] = record.n
    return DistinctnessResult(True)


def growth_profile(
    seed: DivisorClass, count: int, transform: LatticeIsometry | None = None
) -> list[tuple[int, Fraction]]:
    """Exact H-coefficients along the orbit; the diagnostic for dominant growth.

    Successive ratios converge to the dominant eigenvalue whenever the seed
    has a component along the dominant eigenvector.
    """
    if count < 3:
        raise ValueError("growth profile needs at least three steps")
    return [(r.n, r.divisor.h) for r in orbit(seed, count, transform)]


def growth_ratios(profile: list[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """Ratios h_{n+1} / h_n for consecutive nonzero H-coefficients."""
    out = []
    for (n, a), (_, b) in zip(profile, profile[1:]):
        if a != 0:
            out.append((n, b / a))
    return out


def max_norm_increase_start(
    seed: DivisorClass, count: int, transform: LatticeIsometry | None = None
) -> int | None:
    """Smallest n1 with the orbit's max-norm strictly increasing from n1 on.

    Returns None if the norm is still not monotone at the end of the window.
    """
    return increase_start(orbit(seed, count, transform))


def increase_start(records: Iterable[OrbitRecord]) -> int | None:
    """Smallest n1 from which the records' max-norms strictly increase."""
    norms = [max(abs(c) for c in r.divisor.coeffs) for r in records]
    start: int | None = None
    for n in range(len(norms) - 1):
        if norms[n + 1] > norms[n]:
            if start is None:
                start = n
        else:
            start = None
    return start
