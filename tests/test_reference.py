"""`reference.deviations`, the one rule by which certified enclosures are
matched against the rounded reference data."""

from fractions import Fraction

from voljump.reference import (
    TABLE_TOLERANCE,
    WITNESS_COEFFS,
    WITNESS_TOLERANCE,
    deviations,
)
from voljump.spectral import _matches_reference


def fraction_distance(lo, hi, reference):
    return max(reference - lo, hi - reference)


def test_a_distance_equal_to_the_tolerance_is_within():
    # [1/4, 1/4] lies exactly 1/100 below 26/100; one grid step lower does not
    distances, bound, denominator = deviations(
        [(1, 1), (0, 1)], [Fraction(26, 100)] * 2, TABLE_TOLERANCE, 2
    )
    assert denominator == 400
    assert distances == [4, 104]
    assert bound == 4
    assert [x <= bound for x in distances] == [True, False]


def test_distances_match_fraction_arithmetic():
    bits = 7
    enclosures = [(-300, -250), (10, 11), (64, 64), (-5, 3)]
    references = [Fraction(-2), Fraction(3, 40), Fraction(1, 2), Fraction(-1, 3)]
    distances, bound, denominator = deviations(enclosures, references, Fraction(1, 6), bits)
    assert Fraction(bound, denominator) == Fraction(1, 6)
    for (lo, hi), r, x in zip(enclosures, references, distances):
        expected = fraction_distance(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits), r)
        assert Fraction(x, denominator) == expected


def test_negated_witness_pairs_are_the_coefficients(eigen):
    # the witness stage encloses the E_i coefficients -t_i; negated pairs
    # (-hi, -lo) enclose t_i, which the reference prints
    bits = eigen.grid_bits
    scale = 1 << bits
    witness = [(int(c.lo * scale), int(c.hi * scale)) for c in eigen.nef_witness.coeffs[1:]]
    negated = [(-hi, -lo) for lo, hi in witness]
    distances, bound, denominator = deviations(negated, WITNESS_COEFFS, WITNESS_TOLERANCE, bits)
    for t, r, x in zip(eigen.t(), WITNESS_COEFFS, distances):
        assert Fraction(x, denominator) == fraction_distance(t.lo, t.hi, r)
        assert x <= bound
    assert _matches_reference(witness, eigen.dominant_value)[0]
    # the pairs as the stage gives them are about 2 t_i off their references
    assert not _matches_reference(negated, eigen.dominant_value)[0]


def test_empty_input():
    assert deviations([], [], TABLE_TOLERANCE, 5) == ([], 1 << 5, 100 << 5)
