"""Orbits of divisor classes under the composite map, walked on exact integers.

T is linear, so `walk` steps the integral class D * seed (D the lcm of the
seed's denominators), and a walk's facts are decided on those vectors,
which share the scale D: equal classes are equal vectors, max-norms keep
their order and h_(n+1) / h_n is a ratio of first entries (`ratio_pairs`).
A verification run walks only for its growth and max-norm lines and the
report's records; its distinctness, self-intersection and canonical-degree
lines hold for every n, deduced in `report`, and the walks here are the
tests' reference for them.  A printed orbit and the report's records are
built from the integer vectors, `record_json` the one builder of a JSON
record; an `OrbitRecord`, with its `Fraction`s, is built only for the
records `orbit` and `iterate` return.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import Record
from .lattice import CANONICAL, DivisorClass, fraction_type, pair_integers
from .transform import LatticeIsometry, apply_integers, composite_T


class OrbitRecord(Record):
    """One orbit step: the class T^n(seed) with its basic invariants."""

    n: int
    divisor: DivisorClass
    self_intersection: Fraction
    canonical_degree: Fraction

    @classmethod
    def of(cls, n: int, vector: tuple[int, ...], scale: int) -> "OrbitRecord":
        """The record of the class vector / scale, paired in integers."""
        fraction = fraction_type()
        return cls(
            n,
            DivisorClass(fraction(c, scale) for c in vector),
            fraction(pair_integers(vector, vector), scale * scale),
            fraction(pair_integers(vector, CANONICAL), scale),
        )


def iterate(seed: DivisorClass, n: int) -> OrbitRecord:
    """The class T^n(seed), computed by repeated squaring of the matrix
    (`LatticeIsometry.power`), not by `walk`'s stepping: the two stay
    independent, so that tests comparing `iterate` with `orbit` compare two
    computations of the orbit."""
    if n < 0:
        raise ValueError("orbit index must be nonnegative")
    vector, scale = seed.integral_multiple()
    return OrbitRecord.of(n, apply_integers(composite_T().power(n), vector), scale)


def walk(m: LatticeIsometry, vector: Sequence[int], count: int) -> list[tuple[int, ...]]:
    """The integer vectors m^n(vector) for n < count, by naive stepping of m."""
    if count < 0:
        raise ValueError("orbit length must be nonnegative")
    vectors = [tuple(vector)]
    while len(vectors) < count:
        vectors.append(apply_integers(m, vectors[-1]))
    return vectors[:count]


def record_json(n: int, vector: Sequence[int]) -> dict:
    """The JSON record of T^n(seed) for an integral seed, vector = T^n(seed): the
    class and its invariants as exact "p/q" strings, paired in integers."""
    return {
        "n": n,
        "class": [f"{c}/1" for c in vector],
        "self_intersection": f"{pair_integers(vector, vector)}/1",
        "canonical_degree": f"{pair_integers(vector, CANONICAL)}/1",
    }


def orbit(seed: DivisorClass, count: int) -> Iterator[OrbitRecord]:
    """Records for T^0(seed) .. T^{count-1}(seed), from one `walk`."""
    vector, scale = seed.integral_multiple()
    for n, v in enumerate(walk(composite_T(), vector, count)):
        yield OrbitRecord.of(n, v, scale)


class DistinctnessResult(Record):
    distinct: bool
    collision: tuple[int, int] | None = None  # first (n, m) with equal classes


def verify_distinct(seed: DivisorClass, count: int) -> DistinctnessResult:
    """Exact pairwise distinctness of T^0(seed) .. T^{count-1}(seed)."""
    if count < 1:
        raise ValueError("need at least one orbit element")
    return distinctness(walk(composite_T(), seed.integral_multiple()[0], count))


def distinctness(vectors: Sequence[tuple[int, ...]]) -> DistinctnessResult:
    """Exact pairwise distinctness of the classes vector / scale, vector n
    for T^n: the scale is shared, so two classes are equal iff their integer
    vectors are."""
    seen: dict[tuple[int, ...], int] = {}
    for n, vector in enumerate(vectors):
        if vector in seen:
            return DistinctnessResult(False, (seen[vector], n))
        seen[vector] = n
    return DistinctnessResult(True)


def growth_profile(seed: DivisorClass, count: int) -> list[tuple[int, Fraction]]:
    """Exact H-coefficients along the orbit; the diagnostic for dominant growth.

    Successive ratios converge to the dominant eigenvalue whenever the seed
    has a component along the dominant eigenvector.
    """
    if count < 3:
        raise ValueError("growth profile needs at least three steps")
    vector, scale = seed.integral_multiple()
    return [(n, fraction_type()(v[0], scale)) for n, v in enumerate(walk(composite_T(), vector, count))]


def growth_ratios(profile: Sequence[tuple[int, int | Fraction]]) -> list[tuple[int, Fraction]]:
    """Ratios h_{n+1} / h_n for consecutive nonzero H-coefficients (`ratio_pairs`)."""
    return [(n, fraction_type()(b, a)) for n, a, b in ratio_pairs(profile)]


def ratio_pairs(profile: Sequence[tuple[int, int | Fraction]]) -> list[tuple]:
    """(n, a, b), a > 0, b / a = h_(n+1) / h_n, for consecutive H-coefficients
    with h_n != 0, which may share any positive scale: b / a lies in [x, y]
    iff a x <= b <= a y."""
    return [(n, a, b) if a > 0 else (n, -a, -b) for (n, a), (_, b) in zip(profile, profile[1:]) if a]


def max_norm_increase_start(seed: DivisorClass, count: int) -> int | None:
    """Smallest n1 with the orbit's max-norm strictly increasing from n1 on.

    Returns None if the norm is still not monotone at the end of the window.
    """
    return increase_start(walk(composite_T(), seed.integral_multiple()[0], count))


def increase_start(vectors: Iterable[tuple[int, ...]]) -> int | None:
    """Smallest n1 from which the max-norms of the vectors strictly increase;
    a shared positive scale keeps their order."""
    norms = [max(map(abs, v)) for v in vectors]
    start: int | None = None
    for n in range(len(norms) - 1):
        if norms[n + 1] > norms[n]:
            if start is None:
                start = n
        else:
            start = None
    return start
