import random
from fractions import Fraction

import pytest

from voljump.lattice import DivisorClass, canonical_class, pair, standard_line
from voljump.orbit import (
    growth_profile,
    growth_ratios,
    iterate,
    max_norm_increase_start,
    orbit,
    verify_distinct,
)
from voljump.transform import apply, composite_T


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
        assert r.divisor.is_integral()
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
        seen.append(current.h)
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
