"""`reference.deviations`, the one rule by which certified enclosures are
matched against the rounded reference data, and `reference.witness_matches`,
the witness verdict built on it."""

from fractions import Fraction

import pytest

from voljump import reference
from voljump.reference import (
    TABLE_MILLI,
    TABLE_TOLERANCE_MILLI,
    WITNESS_MILLI,
    WITNESS_TOLERANCE_MILLI,
    deviations,
    witness_matches,
)
from voljump.errors import PrecisionBudgetError


def fraction_distance(lo, hi, reference):
    return max(reference - lo, hi - reference)


def test_a_distance_equal_to_the_tolerance_is_within():
    # [1/4, 1/4] lies exactly 1/100 below 26/100; [0, 0] lies wholly outside
    distances, bound, denominator = deviations([(1, 1), (0, 0)], [260] * 2, TABLE_TOLERANCE_MILLI, 2, "ab")
    assert denominator == 4000
    assert distances == [40, 1040]
    assert bound == 40
    assert [x <= bound for x in distances] == [True, False]
    # [0, 1/4] touches the band's edge at 1/4: neither within nor outside
    with pytest.raises(PrecisionBudgetError, match="^b enclosure straddles its reference band's edge$"):
        deviations([(1, 1), (0, 1)], [260] * 2, TABLE_TOLERANCE_MILLI, 2, "ab")


def test_distances_match_fraction_arithmetic():
    bits = 7
    enclosures = [(-300, -250), (10, 11), (64, 64), (-5, 3)]
    references = [-2000, 75, 500, -333]
    distances, bound, denominator = deviations(enclosures, references, 167, bits, "abcd")
    assert Fraction(bound, denominator) == Fraction(167, 1000)
    for (lo, hi), r, x in zip(enclosures, references, distances):
        expected = fraction_distance(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits), r / Fraction(1000))
        assert Fraction(x, denominator) == expected


def test_negated_witness_pairs_are_the_coefficients(eigen):
    # the witness stage encloses the E_i coefficients -t_i; negated pairs
    # (-hi, -lo) enclose t_i, which the reference prints
    bits = eigen.grid_bits
    scale = 1 << bits
    witness = eigen.witness_numerators
    assert [(c.lo * scale, c.hi * scale) for c in eigen.nef_witness.coeffs[1:]] == list(witness)
    negated = [(-hi, -lo) for lo, hi in witness]
    names = [f"t_{i}" for i in range(1, 11)]
    distances, bound, denominator = deviations(negated, WITNESS_MILLI, WITNESS_TOLERANCE_MILLI, bits, names)
    for t, r, x in zip(eigen.t(), reference.WITNESS_COEFFS, distances):
        assert Fraction(x, denominator) == fraction_distance(t.lo, t.hi, r)
        assert x <= bound
    assert witness_matches(witness, bits)[0]
    # the pairs as the stage gives them are about 2 t_i off their references
    assert not witness_matches(negated, bits)[0]


def on_grid(milli_pairs, bits):
    """Numerators (lo, hi) over 2^bits of -t_i, as the witness stage gives
    them, for t_i in [lo, hi] / 1000, rounded outward."""
    return [((-hi << bits) // 1000, -((lo << bits) // 1000)) for lo, hi in milli_pairs]


def test_a_straddling_coefficient_leaves_the_witness_undecided(eigen):
    # t_1 in [0.355, 0.357] against 0.354 +- 0.002: the band ends at 0.356,
    # so neither a match nor a mismatch is proven
    bits = eigen.grid_bits
    exact = [(r, r) for r in WITNESS_MILLI]
    straddling = on_grid([(355, 357)] + exact[1:], bits)
    with pytest.raises(PrecisionBudgetError, match="^t_1 enclosure straddles its reference band's edge$"):
        witness_matches(straddling, bits)
    # a whole enclosure outside its band proves the mismatch, with the
    # detail naming the first coefficient not proven within
    assert witness_matches(on_grid([(357, 358)] + exact[1:], bits), bits) == (
        False, "coefficient off reference by up to 0.0040"
    )
    outside = on_grid([(355, 357)] + exact[1:9] + [(185, 186)], bits)
    assert witness_matches(outside, bits) == (False, "coefficient off reference by up to 0.0030")
    assert witness_matches(on_grid([(353, 355)] + exact[1:], bits), bits)[0]


def test_empty_input():
    assert deviations([], [], TABLE_TOLERANCE_MILLI, 5, []) == ([], 10 << 5, 1000 << 5)


def test_fraction_forms_are_the_thousandths():
    # the frozen names are built from the integer data on first read
    assert reference.WITNESS_COEFFS == tuple(Fraction(n, 1000) for n in WITNESS_MILLI)
    assert reference.WITNESS_COEFFS[3] == Fraction(371, 1000)
    assert reference.WITNESS_TOLERANCE == Fraction(1, 500)
    assert reference.TABLE_TOLERANCE == Fraction(1, 100)
    assert reference.TABLE_ROWS == tuple((d, a, Fraction(m, 1000)) for d, a, m in TABLE_MILLI)
    assert reference.TABLE_ROWS[0] == (3, (1, 0, 0, 3, 1, 0, 0, 0, 0, 0), Fraction(1169, 1000))
    with pytest.raises(AttributeError, match="TABLE_MARGINS"):
        reference.TABLE_MARGINS
