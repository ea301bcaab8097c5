from fractions import Fraction

import pytest

from voljump.errors import CertificationError, PrecisionBudgetError
from voljump.intervals import RealEnclosure
from voljump.lattice import GRAM_DIAGONAL, canonical_class
from voljump.polynomials import IntPoly, combine, faddeev_leverrier, strip_rational_root
from voljump.reference import WEIGHT_ORDER, WITNESS_COEFFS, WITNESS_TOLERANCE
from voljump.spectral import (
    _certify_simple_root,
    _column_values,
    _eigenvector,
    _witness,
    beta,
    line_pairing_identity_certified,
    select_orientation,
)
from voljump.transform import LatticeIsometry, composite_T

WIDTH_BOUND = Fraction(1, 10**30)


def test_dominant_value_exceeds_one(eigen):
    assert eigen.dominant_value.lo > 1


def test_eigen_residual_contains_zero(eigen):
    t = eigen.transform
    lam = eigen.dominant_value
    coeffs = eigen.dominant_class.coeffs
    for i in range(11):
        acc = RealEnclosure.exact(0)
        for j in range(11):
            acc = acc + t.rows[i][j] * coeffs[j]
        acc = acc - lam * coeffs[i]
        assert acc.contains_zero()


def test_normalization_is_exact(eigen):
    h_coeff = eigen.dominant_class.coeffs[0]
    assert h_coeff.lo == h_coeff.hi == 1


def test_r_sum_exceeds_one(eigen):
    r = eigen.r()
    total = r[0] + r[1] + r[2]
    assert total.lo > 1


def test_self_intersection_zero(eigen):
    pairing = eigen.dominant_class.self_pair()
    assert pairing.contains_zero()
    assert pairing.width <= WIDTH_BOUND


def test_canonical_pairing_zero(eigen):
    pairing = eigen.dominant_class.pair(canonical_class())
    assert pairing.contains_zero()
    assert pairing.width <= WIDTH_BOUND


def test_beta_exact_example():
    # B = 1 and D = 3 exactly give beta = B / (D + B) = 1/4, on any grid
    assert beta((3, 3), (1, 1), 8) == RealEnclosure.exact(Fraction(1, 4))
    # r1 = r2 = r3 = 2/5 gives beta = 1/10: B / 2 a_0 = (6/5 - 1) / 2
    value = beta((9, 9), (1, 1), 40)
    assert value.contains(Fraction(1, 10)) and value.width <= Fraction(1, 2**40)


def test_beta_requires_certifiable_sign():
    # B(lambda) in [-1, 2] with D(lambda) > 0: beta straddles 0
    with pytest.raises(PrecisionBudgetError):
        beta((10, 11), (-1, 2), 8)


def test_beta_rejects_certainly_outside():
    with pytest.raises(CertificationError, match="outside"):
        beta((10, 11), (-3, -2), 8)


def test_beta_within_reference_implied_interval(eigen):
    # back-computation oracle: the reference decimals t_i carry rounding
    # slack 1/2000 each; sum t_i^2 then bounds beta via
    # 2 beta^2 / (1-beta)^2 = 1 - sum t_i^2.
    slack = Fraction(1, 2000)
    low = sum((t - slack) ** 2 for t in WITNESS_COEFFS)
    high = sum((t + slack) ** 2 for t in WITNESS_COEFFS)
    # beta / (1 - beta) = sqrt((1 - sum t^2) / 2) and both sides increase
    # with beta, so the squared ratios at the endpoints must bracket
    value = eigen.line_component
    ratio_lo = value.lo / (1 - value.lo)
    ratio_hi = value.hi / (1 - value.hi)
    assert (1 - high) / 2 <= ratio_lo**2
    assert ratio_hi**2 <= (1 - low) / 2


def test_witness_matches_reference(eigen):
    for enc, ref in zip(eigen.t(), WITNESS_COEFFS):
        assert enc.lo >= ref - WITNESS_TOLERANCE
        assert enc.hi <= ref + WITNESS_TOLERANCE


def test_witness_ordering_certified(eigen):
    ts = eigen.t()
    for a, b in zip(WEIGHT_ORDER, WEIGHT_ORDER[1:]):
        assert ts[a - 1].lo > ts[b - 1].hi


def test_witness_positive(eigen):
    assert all(t.lo > 0 for t in eigen.t())


def test_line_sum_is_one(eigen):
    ts = eigen.t()
    total = ts[0] + ts[1] + ts[2]
    assert total.contains(1)
    assert total.width <= WIDTH_BOUND
    assert line_pairing_identity_certified(eigen.dominant_class)


def test_square_sum_identity(eigen):
    direct = eigen.nef_witness.multiplier_square_sum()
    ratio = eigen.line_component / (1 - eigen.line_component)
    via_identity = 1 - 2 * ratio.square()
    assert direct.overlaps(via_identity)
    assert direct.width <= WIDTH_BOUND
    assert via_identity.width <= WIDTH_BOUND


def _eigen_residuals(m, column):
    """Row i of (xI - m) a as integer polynomials."""
    return [
        combine((1,) + tuple(-c for c in row), (IntPoly((0,) + column[i].coeffs), *column))
        for i, row in enumerate(m.rows)
    ]


def test_adjugate_column_is_exact_eigendata(eigen):
    t = eigen.transform
    p, column = faddeev_leverrier(t)
    s = strip_rational_root(p, 1)[1]
    assert (p, column, s) == (eigen.polynomial, eigen.adjugate_column, eigen.off_unit_factor)
    assert max(abs(c) for a in column for c in a.coeffs) <= 3  # two bits
    # (xI - T) a = p e_0 as polynomials, which fixes a of degree < 11
    assert _eigen_residuals(t, column) == [p] + [IntPoly([0])] * 10
    assert all(r.is_multiple_of(s) for r in _eigen_residuals(t, column))
    # v.v = 0 and v.K = 0 hold mod s, not identically
    self_pairing = combine(GRAM_DIAGONAL, [a * a for a in column])
    k, _ = canonical_class().integral_multiple()
    k_pairing = combine([g * c for g, c in zip(GRAM_DIAGONAL, k)], column)
    for poly in (self_pairing, k_pairing):
        assert poly != IntPoly([0])
        assert poly.is_multiple_of(s)
    # the enclosures hold a(x) / a_0(x) across lambda's enclosure
    lam = eigen.dominant_value
    for x in (lam.lo, lam.hi):
        for a, enc in zip(column, eigen.dominant_class.coeffs):
            assert enc.contains(a(x) / column[0](x))


def test_adjugate_column_of_identity():
    # det(xI - I) = (x - 1)^11 and adj(xI - I) = (x - 1)^10 I
    p, column = faddeev_leverrier(LatticeIsometry.identity())
    power = IntPoly([1])
    for _ in range(10):
        power = power * IntPoly([-1, 1])
    assert p == power * IntPoly([-1, 1])
    assert column == (power,) + (IntPoly([0]),) * 10


def test_eigenvector_rejects_corrupted_column(eigen):
    column = list(eigen.adjugate_column)
    column[4] = IntPoly((column[4].coeffs[0] + 1,) + column[4].coeffs[1:])
    with pytest.raises(CertificationError, match="eigen-relation row"):
        _eigenvector(
            eigen.transform, column, eigen.off_unit_factor, eigen.dominant_value, Fraction(1)
        )


def test_eigenvector_rejects_corrupted_first_entry(eigen):
    # a_0 + 1 adds x - T_00 to row 0 of (xI - T) a, which then differs from
    # p = (x - 1) s; row 0 is checked first
    column = list(eigen.adjugate_column)
    column[0] = IntPoly((column[0].coeffs[0] + 1,) + column[0].coeffs[1:])
    with pytest.raises(CertificationError, match="eigen-relation row 0 "):
        _eigenvector(
            eigen.transform, column, eigen.off_unit_factor, eigen.dominant_value, Fraction(1)
        )


def test_eigenvector_requires_the_exact_adjugate_column(eigen):
    # a_4 + s keeps every row of (xI - T) a zero mod s, and a(lambda) is
    # unchanged; rows 1..10 must still vanish as polynomials
    column = list(eigen.adjugate_column)
    column[4] = combine((1, 1), (column[4], eigen.off_unit_factor))
    with pytest.raises(CertificationError, match="eigen-relation row 4 "):
        _eigenvector(
            eigen.transform, column, eigen.off_unit_factor, eigen.dominant_value, Fraction(1)
        )


def test_witness_polynomials_are_the_witness(eigen):
    d, b, *n = eigen.witness_polynomials
    column = eigen.adjugate_column
    assert max(p.degree for p in (d, b, *n)) <= 10
    assert max(abs(c) for p in (d, b, *n) for c in p.coeffs) <= 6
    assert eigen.witness_values == tuple(_column_values((d, b, *n), eigen.dominant_value))
    assert eigen.witness_values[0][0] > 0  # D(lambda) > 0, so 1 - beta > 0
    # beta = B / 2 a_0 and t_i = N_i / D across lambda's enclosure
    lam = eigen.dominant_value
    for x in (lam.lo, lam.hi):
        assert eigen.line_component.contains(b(x) / (2 * column[0](x)))
        for p, t in zip(n, eigen.t()):
            assert t.contains(p(x) / d(x))
    # the signs are normalized to D(lambda) > 0: the negated column, whose
    # D, B and N_i all change sign, gives the same witness
    negated = [combine((-1,), (a,)) for a in column]
    assert _witness(negated, lam) == (eigen.witness_polynomials, eigen.witness_values)


def test_witness_requires_certified_denominator(eigen):
    # a_0 = 1, a_1 = -3: B = 2 and D = 2 a_0 - B = 0, i.e. beta = 1
    column = (IntPoly([1]), IntPoly([-3])) + (IntPoly([0]),) * 9
    with pytest.raises(PrecisionBudgetError, match="D\\(lambda\\)"):
        _witness(column, eigen.dominant_value)


def test_eigenvector_rejects_identity():
    near_one = RealEnclosure(Fraction(99, 100), Fraction(101, 100))
    p, _ = faddeev_leverrier(LatticeIsometry.identity())
    with pytest.raises(CertificationError):
        _certify_simple_root(p, near_one)


def test_eigenvector_rejects_enclosure_without_root(eigen):
    off = RealEnclosure(Fraction(2), Fraction(3))
    with pytest.raises(CertificationError):
        _certify_simple_root(faddeev_leverrier(composite_T())[0], off)


def test_orientation_oracle_selects_fixed_composite():
    report = select_orientation()
    assert len(report.matching_names()) == 1
    assert "shift+3" in report.selected
    # both cycle-notation readings (one-slot rotations) fail the oracle
    rejected = [a.name for a in report.assessments if not a.matches]
    assert any("shift+1" in name for name in rejected)
    assert any("shift-1" in name for name in rejected)
