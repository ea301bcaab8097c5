from fractions import Fraction

import pytest

from voljump.errors import CertificationError
from voljump.intervals import (
    ClassEnclosure,
    RealEnclosure,
    decimal_string,
)
from voljump.lattice import canonical_class, pair, standard_line


def enc(lo, hi):
    return RealEnclosure(Fraction(lo), Fraction(hi))


def test_basic_arithmetic():
    a = enc(1, 2)
    b = enc(-1, 3)
    assert (a + b) == enc(0, 5)
    assert (a - b) == enc(-2, 3)
    assert (a * b) == enc(-2, 6)
    assert (-a) == enc(-2, -1)
    assert (3 * a) == enc(3, 6)
    assert (a - 1) == enc(0, 1)


def test_division():
    assert enc(1, 2) / enc(2, 4) == enc(Fraction(1, 4), 1)
    with pytest.raises(CertificationError):
        enc(1, 2) / enc(-1, 1)


def test_square_is_tight_across_zero():
    assert enc(-2, 3).square() == enc(0, 9)
    assert enc(-3, -2).square() == enc(4, 9)
    assert enc(2, 3).square() == enc(4, 9)


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        enc(2, 1)


def test_containment_and_sign_queries():
    a = enc(Fraction(1, 3), Fraction(1, 2))
    assert a.is_positive() and not a.contains_zero()
    assert a.contains(Fraction(2, 5))
    assert a.strictly_inside(0, 1)
    assert enc(-1, 1).contains_zero()
    assert enc(1, 2).strictly_less(enc(3, 4))
    assert not enc(1, 3).strictly_less(enc(3, 4))


def test_outward_rounding_contains_and_is_dyadic():
    a = RealEnclosure(Fraction(1, 3), Fraction(2, 3))
    widened = a.outward(16)
    assert widened.lo <= a.lo and a.hi <= widened.hi
    assert widened.lo.denominator <= 1 << 16
    assert widened.width <= a.width + Fraction(2, 1 << 16)


def test_decimal_string_rounding():
    assert decimal_string(Fraction(1, 3), 5) == "0.33333"
    assert decimal_string(Fraction(2, 3), 4) == "0.6667"
    assert decimal_string(Fraction(5, 1000), 2) == "0.01"  # half away from zero
    assert decimal_string(Fraction(-5, 1000), 2) == "-0.01"
    assert decimal_string(Fraction(7), 0) == "7"
    assert decimal_string(Fraction(-3, 2), 3) == "-1.500"


def test_class_enclosure_pairing_matches_exact():
    lbar = standard_line()
    k = canonical_class()
    enc_lbar = ClassEnclosure.from_class(lbar)
    result = enc_lbar.pair(k)
    assert result.lo == result.hi == pair(lbar, k)
    assert enc_lbar.self_pair() == RealEnclosure.exact(-2)


def test_class_enclosure_multipliers():
    enc_lbar = ClassEnclosure.from_class(standard_line())
    mults = enc_lbar.multipliers()
    assert [m.midpoint for m in mults] == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    square_sum = enc_lbar.multiplier_square_sum()
    assert square_sum == RealEnclosure.exact(3)
