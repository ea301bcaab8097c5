"""References shared by several test modules."""

from fractions import Fraction

from voljump.intervals import RealEnclosure


def outward(enc: RealEnclosure, bits: int) -> RealEnclosure:
    """Widen the endpoints of enc outward onto the dyadic grid of step
    2**-bits; the result contains enc."""
    scale = 1 << bits
    lo = Fraction(enc.lo.numerator * scale // enc.lo.denominator, scale)
    hi = Fraction(-((-enc.hi.numerator * scale) // enc.hi.denominator), scale)
    return RealEnclosure(lo, hi)
