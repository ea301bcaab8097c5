import random
from fractions import Fraction

import pytest

from voljump.lattice import LINE, DivisorClass, canonical_class, pair, standard_line
from voljump.orbit import (
    DistinctnessResult,
    distinctness,
    growth_profile,
    growth_ratios,
    increase_start,
    iterate,
    max_norm_increase_start,
    orbit,
    verify_distinct,
    walk,
)
from voljump.transform import apply, composite_T

from helpers import h_coefficient


def test_iterate_zero_is_seed():
    record = iterate(standard_line(), 0)
    assert record.divisor == standard_line()
    assert record.self_intersection == -2
    assert record.canonical_degree == 0


def test_canonical_class_is_fixed():
    for n in (1, 2, 7, 20):
        assert iterate(canonical_class(), n).divisor == canonical_class()


def test_orbit_invariants_along_fifty_steps():
    records = list(orbit(standard_line(), 50))
    assert len(records) == 50
    for r in records:
        assert all(c.denominator == 1 for c in r.divisor.coeffs)
        assert r.self_intersection == -2
        assert r.canonical_degree == 0
        # adjunction bookkeeping for rational curve classes
        assert r.self_intersection + r.canonical_degree == -2


def test_orbit_prefix_oracle():
    # first steps recomputed by hand-rolled matrix action
    t = composite_T()
    current = standard_line()
    seen = []
    for _ in range(5):
        seen.append(h_coefficient(current))
        current = DivisorClass(
            sum(row[j] * current.coeffs[j] for j in range(11)) for row in t.rows
        )
    assert seen == [1, 2, 4, 6, 9]
    profile = growth_profile(standard_line(), 5)
    assert [h for _, h in profile] == seen


def test_verify_distinct_on_line_orbit():
    assert verify_distinct(standard_line(), 50).distinct


def test_verify_distinct_fixed_point_witness():
    result = verify_distinct(canonical_class(), 2)
    assert not result.distinct
    assert result.collision == (0, 1)


def test_verify_distinct_single_element():
    assert verify_distinct(canonical_class(), 1).distinct


def test_repeated_squaring_matches_naive():
    t = composite_T()
    for seed in (standard_line(), canonical_class()):
        stepped = seed
        for n in range(21):
            assert iterate(seed, n).divisor == stepped
            stepped = apply(t, stepped)


def test_growth_ratios_converge(eigen):
    profile = growth_profile(standard_line(), 50)
    lam = eigen.dominant_value
    low = lam.lo * Fraction(99, 100)
    high = lam.hi * Fraction(101, 100)
    for n, ratio in growth_ratios(profile):
        if n >= 30:
            assert low <= ratio <= high


def test_growth_profile_constant_for_fixed_point():
    profile = growth_profile(canonical_class(), 10)
    assert all(h == -3 for _, h in profile)


def test_growth_ratio_near_eigenvalue_from_start(eigen):
    seed = DivisorClass(c.midpoint for c in eigen.dominant_class.coeffs)
    profile = growth_profile(seed, 4)
    lam = eigen.dominant_value
    low = lam.lo * Fraction(99, 100)
    high = lam.hi * Fraction(101, 100)
    for _, ratio in growth_ratios(profile):
        assert low <= ratio <= high


def test_growth_profile_needs_three_steps():
    with pytest.raises(ValueError):
        growth_profile(standard_line(), 2)


def test_max_norm_increasing_from_start():
    assert max_norm_increase_start(standard_line(), 50) == 0
    assert max_norm_increase_start(canonical_class(), 10) is None


def test_pairing_preserved_along_orbit():
    rng = random.Random(771177)
    t = composite_T()
    for _ in range(20):
        a = DivisorClass(rng.randint(-9, 9) for _ in range(11))
        b = DivisorClass(rng.randint(-9, 9) for _ in range(11))
        expected = pair(a, b)
        ta, tb = a, b
        for _ in range(50):
            ta, tb = apply(t, ta), apply(t, tb)
        assert pair(ta, tb) == expected


@pytest.mark.parametrize("horizon", [50, 400])
def test_integer_walk_matches_apply_stepping(horizon):
    t = composite_T()
    k = canonical_class()
    current = standard_line()
    records = list(orbit(current, horizon))
    assert [r.n for r in records] == list(range(horizon))
    for r in records:
        assert r.divisor == current
        assert r.self_intersection == pair(current, current)
        assert r.canonical_degree == pair(current, k)
        current = apply(t, current)


def test_integer_walk_of_rational_seed():
    seed = DivisorClass([Fraction(1, 2), Fraction(-2, 3)] + [Fraction(1, 5)] * 9)
    t = composite_T()
    current = seed
    for r in orbit(seed, 20):
        assert r.divisor == current
        assert r.self_intersection == pair(current, current)
        current = apply(t, current)


def _fraction_distinctness(records):
    """Reference: equal classes by their `Fraction` coefficients."""
    seen = {}
    for r in records:
        if r.divisor.coeffs in seen:
            return DistinctnessResult(False, (seen[r.divisor.coeffs], r.n))
        seen[r.divisor.coeffs] = r.n
    return DistinctnessResult(True)


def _fraction_increase_start(records):
    """Reference: the max-norm start on `Fraction` coefficients."""
    norms = [max(abs(c) for c in r.divisor.coeffs) for r in records]
    start = None
    for n in range(len(norms) - 1):
        if norms[n + 1] <= norms[n]:
            start = None
        elif start is None:
            start = n
    return start


@pytest.mark.parametrize(
    "seed, start",
    [
        (DivisorClass([Fraction(1, 2), Fraction(-2, 3)] + [Fraction(1, 5)] * 9), 0),
        (DivisorClass([Fraction(-3, 4)] + [Fraction(1, 4)] * 10), None),  # K / 4, fixed by T
        # K + l/k: the max-norm first falls, then increases
        (canonical_class() + Fraction(1, 7) * standard_line(), 6),
        (canonical_class() + Fraction(1, 50) * standard_line(), 12),
    ],
)
def test_vector_facts_of_a_rational_seed_match_fraction_records(seed, start):
    vector, scale = seed.integral_multiple()
    vectors = walk(composite_T(), vector, 30)
    assert scale > 1
    assert increase_start(vectors) == start
    records = list(orbit(seed, 30))
    assert [r.divisor for r in records] == [
        DivisorClass(Fraction(c, scale) for c in v) for v in vectors
    ]
    assert distinctness(vectors) == _fraction_distinctness(records)
    assert increase_start(vectors) == _fraction_increase_start(records)
    assert verify_distinct(seed, 30) == _fraction_distinctness(records)
    assert max_norm_increase_start(seed, 30) == _fraction_increase_start(records)
    assert growth_ratios([(n, v[0]) for n, v in enumerate(vectors)]) == growth_ratios(
        [(r.n, h_coefficient(r.divisor)) for r in records]
    )


def test_fixed_canonical_class_collides_at_the_first_step():
    vector, scale = canonical_class().integral_multiple()
    vectors = walk(composite_T(), vector, 6)
    assert scale == 1
    assert vectors == [(-3,) + (1,) * 10] * 6
    assert distinctness(vectors) == DistinctnessResult(False, (0, 1))
    assert increase_start(vectors) is None


def test_walk_lengths():
    for count in (0, 1, 2, 5):
        assert len(walk(composite_T(), LINE, count)) == count
    assert standard_line().integral_multiple() == (LINE, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        walk(composite_T(), LINE, -1)
