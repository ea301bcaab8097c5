import hashlib
import random
from fractions import Fraction

import pytest

from voljump import spectral
from voljump.config import RunConfig
from voljump.errors import CertificationError, PrecisionBudgetError
from voljump.intervals import RealEnclosure
from voljump.lattice import GRAM_DIAGONAL, canonical_class
from voljump.nefcheck import full_report
from voljump.polynomials import (
    IntPoly,
    combine,
    faddeev_leverrier,
    isolate_real_roots,
    refine_isolated_root,
    strip_rational_root,
)
from voljump.reference import WEIGHT_ORDER, WITNESS_COEFFS, WITNESS_TOLERANCE, witness_matches
from voljump.report import run_verification
from voljump.spectral import (
    CandidateAssessment,
    _dominant_spectrum,
    _eigen_relation,
    _enclose,
    _endpoint_powers,
    _spectral_core,
    _witness_stage,
    line_pairing_identity_certified,
    select_orientation,
    sign_at,
)
from voljump.transform import (
    LatticeIsometry,
    Reading,
    candidate_readings,
    composite_T,
    cremona_isometry,
    exceptional_shift,
)

from helpers import clear_run_caches, column_values

WIDTH_BOUND = Fraction(1, 10**30)


def enclosed_multiples(column, lam):
    """The scaled data `_witness_stage` reads, each multiple -2 a_j enclosed on its
    own rather than derived from a_j's enclosure as the spectral core does."""
    multiples = [combine((-2,), (a,)) for a in column]
    powers = _endpoint_powers(lam, max(a.degree for a in column))
    return multiples, column_values(multiples, lam), powers


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
    # the integer form the run reads is the interval route's enclosure
    assert RealEnclosure.over(*eigen.self_pairing()) == pairing


def test_self_pairing_squares_are_tight_where_an_enclosure_holds_zero(eigen):
    # an entry [-1, 2] / 2^bits squares to [0, 4] / 4^bits, as `square` gives,
    # so v.v = 1 - sum of squares reaches higher than with r_1 > 0
    straddling = eigen._replace(eigenvector=((-1, 2),) + eigen.eigenvector[1:])
    pairing = RealEnclosure.over(*straddling.self_pairing())
    assert pairing == straddling.dominant_class.self_pair()
    assert pairing.hi - RealEnclosure.over(*eigen.self_pairing()).hi > 0


def test_canonical_pairing_zero(eigen):
    pairing = eigen.dominant_class.pair(canonical_class())
    assert pairing.contains_zero()
    assert pairing.width <= WIDTH_BOUND


def constant_column(*head):
    """The column a_0, a_1, ... = head, 0, ... of constant polynomials."""
    return tuple(IntPoly([a]) for a in head) + (IntPoly([0]),) * (11 - len(head))


def witness_of(column, lam, tol=10**12, s=None):
    """`_witness_stage` of a crafted column, its multiples enclosed on their own;
    lam encloses a root of s, the composite's off-unit factor by default."""
    s = s or spectral.eigensystem(60).off_unit_factor
    return _witness_stage(column, enclosed_multiples(column, lam), s, lam, tol)


#: A multiplier K with K s(lambda) enclosed wider than 1 at the run's 60 digits:
#: K s + c is c mod s, nonzero for c != 0, and its enclosure holds 0 for small c.
WIDE = 10**90


def test_sign_at_decides_zero_mod_s_and_signs_at_lambda(eigen, monkeypatch):
    """On p = q s + r: 0 iff r = 0, else the sign of p at both ends of lambda's
    84-digit enclosure, in exact `Fraction`s; undecided only where the
    enclosure holds 0 and s does not divide p."""
    s, powers, (lo, hi, den) = eigen.off_unit_factor, eigen.scaled_column[2], eigen.eigenvalue
    ends = (Fraction(lo, den), Fraction(hi, den))
    rng = random.Random(37)
    for _ in range(200):
        q = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 11))])
        r = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 10))] if rng.randrange(4) else [0])
        p = combine((1, 1), (q * s, r))
        sign = sign_at(p, s, powers, "undecided")
        if r == IntPoly([0]):
            assert sign == 0
        else:
            assert sign != 0 and all(p(x) * sign > 0 for x in ends)
        # the caller's enclosure, where clear, decides alone; where it holds 0,
        # the zero test decides or the message is raised
        assert sign_at(p, s, powers, "undecided", (-5, -1)) == -1
        if r == IntPoly([0]):
            assert sign_at(p, s, powers, "undecided", (-1, 1)) == 0
        else:
            with pytest.raises(PrecisionBudgetError, match="^undecided$"):
                sign_at(p, s, powers, "undecided", (-1, 1))
    # r = den x - lo is nonzero mod s, and its enclosure on lambda's is [0, hi - lo]
    # rounded outward
    with pytest.raises(PrecisionBudgetError, match="^r not sign-certified$"):
        sign_at(IntPoly([-lo, den]), s, powers, "r not sign-certified")
    monkeypatch.setattr(IntPoly, "scaled_remainder", None)  # a clear value takes no remainder
    assert sign_at(s, s, powers, "undecided", (1, 2)) == 1


def test_sign_at_decides_a_root_of_a_factor_of_a_reducible_s(eigen):
    """With s = s_0 (x - 2), lambda a root of s_0: p = s_0 + K s leaves the
    remainder s_0, whose enclosure holds 0, and gcd(s, s_0) = s_0 with
    s / s_0 = x - 2 clear of 0 decides p(lambda) = 0; a remainder prime to s
    whose enclosure holds 0 stays undecided."""
    s_0, powers = eigen.off_unit_factor, eigen.scaled_column[2]
    s = s_0 * IntPoly([-2, 1])
    assert s.degree == 11 == len(powers[0])  # powers of lambda up to lambda^10
    for k in (0, 1, -7):
        p = combine((1, k), (s_0, s))
        assert sign_at(p, s, powers, "undecided") == 0
        assert sign_at(p, s, powers, "undecided", (-1, 1)) == 0
    # x - 2 and s_0 + 1 keep their signs at lambda, about 1.43
    assert sign_at(IntPoly([-2, 1]), s, powers, "undecided") == -1
    assert sign_at(combine((1, 1), (s_0, IntPoly([1]))), s, powers, "undecided") == 1
    # WIDE s_0 + 1 is prime to s, and its enclosure holds 0
    with pytest.raises(PrecisionBudgetError, match="^undecided$"):
        sign_at(combine((WIDE, 1), (s_0, IntPoly([1]))), s, powers, "undecided")


def test_the_grid_is_read_not_recomputed(eigen, monkeypatch):
    """`grid_bits` is a field set when the system is built: no reader reruns
    `_grid_bits`."""

    def forbidden(lam):
        raise AssertionError("grid recomputed")

    monkeypatch.setattr(spectral, "_grid_bits", forbidden)
    assert all(c.passed for c in full_report(eigen).checks)
    assert eigen.nef_witness.coeffs[1].hi * 2**eigen.grid_bits == eigen.witness_numerators[0][1]


def test_a_0_is_decided_by_the_rule(monkeypatch):
    """a_0(lambda) != 0 is certified by a_0's own enclosure; a_0 = 0 at lambda is
    a failure, and a_0 nonzero mod s whose enclosure holds 0 is undecided."""
    kernel, s = spectral.faddeev_leverrier, spectral.eigensystem(60).off_unit_factor
    for head, error, message in (
        (combine((WIDE, 1), (s, IntPoly([1]))), PrecisionBudgetError,
         "a_0(lambda) not certified nonzero; refine the eigenvalue"),
        (combine((3,), (s,)), CertificationError, "a_0(lambda) = 0: a_0 = 0 at lambda"),
    ):
        def corrupted(m, head=head):
            p, column = kernel(m)
            return p, (head, *column[1:])

        monkeypatch.setattr(spectral, "faddeev_leverrier", corrupted)
        with pytest.raises(error) as raised:
            _spectral_core(composite_T(), 10**60)
        assert str(raised.value) == message


def test_beta_exact_example(eigen):
    # a_0 = 2, a_1 = -3: B = 1 and D = 3 exactly give beta = B / (D + B) = 1/4
    # on the grid, whichever the sign of the column
    lam, bits = eigen.eigenvalue, eigen.grid_bits
    for sign in (1, -1):
        polys, _, component, _, _ = witness_of(constant_column(2 * sign, -3 * sign), lam)
        assert polys[:2] == (IntPoly([3]), IntPoly([1]))
        assert component == (1 << bits - 2, 1 << bits - 2)
    # r1 = r2 = r3 = 2/5 gives beta = 1/10: B / 2 a_0 = (6/5 - 1) / 2
    lo, hi = witness_of(constant_column(5, -2, -2, -2), lam)[2]
    assert lo <= Fraction(2**bits, 10) <= hi and hi - lo <= 1


def test_beta_requires_certifiable_sign(eigen):
    # a_0 = K s + 1, a_1 = -3 K s - 2: D = 1 and B = 2 K s + 1, which is 1 mod s
    # but whose enclosure holds 0
    s, one = eigen.off_unit_factor, IntPoly([1])
    column = (combine((WIDE, 1), (s, one)), combine((-3 * WIDE, -2), (s, one))) + (IntPoly([0]),) * 9
    with pytest.raises(PrecisionBudgetError, match="B\\(lambda\\) not sign-certified"):
        witness_of(column, eigen.eigenvalue)
    # a_0 = 1, a_1 = -1 - s: B = s is 0 at lambda, so beta = 0, a genuine failure
    column = (one, combine((-1, -1), (one, s))) + (IntPoly([0]),) * 9
    with pytest.raises(CertificationError) as raised:
        witness_of(column, eigen.eigenvalue)
    assert str(raised.value) == "line component outside (0, 1): B(lambda) D(lambda) = 0"


def test_beta_rejects_certainly_outside(eigen):
    # a_0 = 10, a_1 = -7: B = -3 < 0 < D = 23
    with pytest.raises(CertificationError, match="outside"):
        witness_of(constant_column(10, -7), eigen.eigenvalue)


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
    assert all(r.scaled_remainder(s) == IntPoly([0]) for r in _eigen_residuals(t, column))
    # v.v = 0 and v.K = 0 hold mod s, not identically
    self_pairing = combine(GRAM_DIAGONAL, [a * a for a in column])
    k, _ = canonical_class().integral_multiple()
    k_pairing = combine([g * c for g, c in zip(GRAM_DIAGONAL, k)], column)
    for poly in (self_pairing, k_pairing):
        assert poly != IntPoly([0])
        assert poly.scaled_remainder(s) == IntPoly([0])
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
    # a_4 + 1 adds x to row 4 of (xI - T) a; rows 0..3 never read a_4
    assert _eigen_relation(eigen.transform, eigen.adjugate_column, eigen.polynomial) is None
    assert eigen.relation_row is None
    column = list(eigen.adjugate_column)
    column[4] = IntPoly((column[4].coeffs[0] + 1,) + column[4].coeffs[1:])
    assert _eigen_relation(eigen.transform, column, eigen.polynomial) == 4


def test_eigenvector_rejects_corrupted_first_entry(eigen):
    # a_0 + 1 adds x - T_00 to row 0 of (xI - T) a, which then differs from
    # p = (x - 1) s; row 0 is checked first
    column = list(eigen.adjugate_column)
    column[0] = IntPoly((column[0].coeffs[0] + 1,) + column[0].coeffs[1:])
    assert _eigen_relation(eigen.transform, column, eigen.polynomial) == 0


def test_eigenvector_requires_the_exact_adjugate_column(eigen):
    # a_4 + s keeps every row of (xI - T) a zero mod s, and a(lambda) is
    # unchanged; rows 1..10 must still vanish as polynomials
    column = list(eigen.adjugate_column)
    column[4] = combine((1, 1), (column[4], eigen.off_unit_factor))
    assert _eigen_relation(eigen.transform, column, eigen.polynomial) == 4


def test_witness_polynomials_are_the_witness(eigen):
    d, b, *n = eigen.witness_polynomials
    column = eigen.adjugate_column
    assert max(p.degree for p in (d, b, *n)) <= 10
    assert max(abs(c) for p in (d, b, *n) for c in p.coeffs) <= 6
    assert eigen.witness_values == tuple(column_values((d, b, *n), eigen.eigenvalue))
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
    assert witness_of(negated, eigen.eigenvalue) == (
        eigen.witness_polynomials,
        eigen.witness_values,
        eigen.line_numerators,
        eigen.witness_numerators,
        eigen.grid_bits,
    )


def line_identity(polys):
    """D - N1 - N2 - N3 of the witness polynomials (D, B, N_1, ..., N_10)."""
    d, _, *n = polys
    return combine((1, -1, -1, -1), (d, *n[:3]))


def test_the_witness_stage_makes_the_line_margin_zero(eigen):
    """D - N1 - N2 - N3 = 2 (a_0 + a_1 + a_2 + a_3) + 2 B = 0 for every column
    the stage certifies: the run's, each oracle reading's permuted column, and
    crafted columns with either sign of D(lambda)."""
    zero, tol = IntPoly([0]), 10**12
    assert line_identity(eigen.witness_polynomials) == zero
    certified = 0
    for reading in candidate_readings():
        base = eigen[1:8] if reading.base == eigen.transform else _spectral_core(reading.base, tol)
        _, column, s, lam, _, _, _ = base
        column = [column[i] for i in sorted(range(11), key=reading.q.__getitem__)]
        try:
            polys = witness_of(column, lam, tol, s)[0]
        except CertificationError as err:  # the 8 readings with B(lambda) < 0
            assert str(err).endswith("B(lambda) < 0 < D(lambda)")
            continue
        assert line_identity(polys) == zero
        certified += 1
    assert certified == 6
    # a_0 = 2000, a_1 = -3000 + r_1, a_2 = r_2, a_3 = r_3 with |r_i(lambda)| < 240
    # (coefficients in -2..2, degree <= 10, lambda < 1.44) certify
    # 0 < B(lambda) < D(lambda); the negated column has D(lambda) < 0
    rng = random.Random(2013)
    for _ in range(20):
        r = [IntPoly([rng.randint(-2, 2) for _ in range(11)]) for _ in range(10)]
        column = [IntPoly([2000]), combine((1, 1), (IntPoly([-3000]), r[0])), *r[1:]]
        for sign in (1, -1):
            signed = [combine((sign,), (a,)) for a in column]
            polys = witness_of(signed, eigen.eigenvalue)[0]
            assert line_identity(polys) == zero


def test_witness_requires_certified_denominator(eigen):
    # a_0 = 1, a_1 = -3: B = 2 and D = 2 a_0 - B = 0, i.e. beta = 1, a genuine
    # failure; a_0 = K s, a_1 = 2 - K s: D = 2 K s + 2, which is 2 mod s but
    # whose enclosure holds 0, is undecided
    with pytest.raises(CertificationError, match="B\\(lambda\\) D\\(lambda\\) = 0"):
        witness_of(constant_column(1, -3), eigen.eigenvalue)
    s, two = eigen.off_unit_factor, IntPoly([2])
    column = (combine((WIDE,), (s,)), combine((1, -WIDE), (two, s))) + (IntPoly([0]),) * 9
    with pytest.raises(PrecisionBudgetError, match="D\\(lambda\\)"):
        witness_of(column, eigen.eigenvalue)


def test_the_witness_stage_decides_d_and_b_before_building_n(eigen, monkeypatch):
    # the errors and their order are D's budget error, then beta's; a column
    # that fails either encloses D and B only, none of N_1..N_3
    s, lam, tol = eigen.off_unit_factor, eigen.eigenvalue, 10**12
    one, zero = IntPoly([1]), IntPoly([0])
    enclosed = []

    def counted(p, powers):
        enclosed.append(p)
        return _enclose(p, powers)

    monkeypatch.setattr(spectral, "_enclose", counted)
    # a_0 = K s, a_1 = 2 - K s: B = -2 < 0 and D = 2 K s + 2, whose enclosure holds 0
    column = (combine((WIDE,), (s,)), combine((-WIDE, 2), (s, one)), *(zero,) * 9)
    with pytest.raises(PrecisionBudgetError) as raised:
        _witness_stage(column, enclosed_multiples(column, lam), s, lam, tol)
    assert str(raised.value) == (
        "D(lambda) = 2 (1 - beta) a_0(lambda) not certified nonzero; refine the eigenvalue"
    )
    assert len(enclosed) == 2
    # a_0 = 1: B = -1 < 0 < D = 3, and negated, D = -3 < 0 < B = 1, signed as D > 0
    for a_0 in (1, -1):
        enclosed.clear()
        column = (IntPoly([a_0]), *(zero,) * 10)
        with pytest.raises(CertificationError) as raised:
            _witness_stage(column, enclosed_multiples(column, lam), s, lam, tol)
        assert str(raised.value) == "line component outside (0, 1): B(lambda) < 0 < D(lambda)"
        assert len(enclosed) == 2
    # a_0 = K s + 1, a_1 = -3 K s - 2: D = 1 > 0 and B = 2 K s + 1, whose enclosure holds 0
    enclosed.clear()
    column = (combine((WIDE, 1), (s, one)), combine((-3 * WIDE, -2), (s, one)), *(zero,) * 9)
    with pytest.raises(PrecisionBudgetError) as raised:
        _witness_stage(column, enclosed_multiples(column, lam), s, lam, tol)
    assert str(raised.value) == (
        "line component not certified inside (0, 1): B(lambda) not sign-certified"
    )
    assert len(enclosed) == 2


@pytest.mark.parametrize("digits", [20, 60, 400])
def test_enclosures_at_lambda_are_sized_to_its_bracket(digits):
    # over 2^S, S = 2 bitlen(D) + 64 for lambda in [A, B] / D, the numerators are
    # about S bits plus the column's own size, not a multiple of bitlen(D) by the degree
    eigen = spectral.eigensystem(digits)
    (_, multiple_values, powers), den = eigen.scaled_column, eigen.eigenvalue[2]
    numerators = [x for xs in (*eigen.witness_values, *multiple_values, *powers) for x in xs]
    assert max(abs(x).bit_length() for x in numerators) <= 2 * den.bit_length() + 96


def test_the_oracle_assessments_are_pinned():
    # SHA-256 of the 14 assessments (names, verdicts, details) as computed
    # when every reading built N'_1..N'_3 before its sign checks and every
    # class was read at 12 digits; the composite's class is read at the run's
    for digits in (20, 60, 400):
        assessments = select_orientation(spectral.eigensystem(digits)).assessments
        assert len(assessments) == 14
        assert sum(a.detail.endswith("B(lambda) < 0 < D(lambda)") for a in assessments) == 8
        digest = hashlib.sha256(repr(assessments).encode()).hexdigest()
        assert digest == "5da1f5d64f263887d99d59a33d2eec28080fd0beb1b80236dc64ec00fcdc9d00"


def test_eigenvector_rejects_identity():
    # det(xI - I) = (x - 1)^11 leaves no factor to carry the eigenvalue
    p, _ = faddeev_leverrier(LatticeIsometry.identity())
    with pytest.raises(CertificationError, match="no factor beyond powers of"):
        _dominant_spectrum(p)


def test_spectrum_rejects_repeated_roots_beyond_unit():
    # (x - 1)(x - 3)(x^2 - 2)^2: the dominant root 3 is simple, but s is not
    # squarefree, which gcd(s, s') = x^2 - 2 shows
    square = IntPoly([-2, 0, 1])
    p = IntPoly([-1, 1]) * IntPoly([-3, 1]) * square * square
    with pytest.raises(CertificationError, match="repeated roots beyond"):
        _dominant_spectrum(p)
    s, (a, b, den) = _dominant_spectrum(IntPoly([-1, 1]) * IntPoly([-3, 1]) * square)
    assert s == IntPoly([-3, 1]) * square
    assert refine_isolated_root(s, Fraction(a, den), Fraction(b, den), Fraction(1, 10**6)).contains(3)


def test_orientation_oracle_selects_fixed_composite(eigen):
    report = select_orientation(eigen)
    assert [a.name for a in report.assessments if a.matches] == [report.selected]
    assert "shift+3" in report.selected
    # both cycle-notation readings (one-slot rotations) fail the oracle
    rejected = [a.name for a in report.assessments if not a.matches]
    assert any("shift+1" in name for name in rejected)
    assert any("shift-1" in name for name in rejected)


def test_conjugators_transfer_the_adjugate_column():
    # every reading is Q rep Q^T for its recorded slot permutation q, and the
    # representative's adjugate column, permuted by a'[q(i)] = a[i], is the
    # reading's own, with the same characteristic polynomial
    readings = candidate_readings()
    assert len(readings) == 14
    bases = {(r.representative, r.base) for r in readings}
    cremona = cremona_isometry(1, 2, 3)
    assert bases == {
        (f"cremona(1, 2, 3), shift+{k}, rotate-then-cremona", cremona @ exceptional_shift(k))
        for k in (1, 3)
    }
    # each representative is computed once and is its own reading's matrix
    assert len({id(r.base) for r in readings}) == 2
    by_name = {n: r.matrix for r in readings for n in r.name.split(" = ")}
    assert all(by_name[rep] == base for rep, base in bases)
    for _, matrix, _, base, q in readings:
        assert q[0] == 0 and sorted(q) == list(range(11))
        assert all(matrix.rows[q[i]][q[j]] == base.rows[i][j] for i in range(11) for j in range(11))
        p, column = faddeev_leverrier(base)
        permuted = [None] * 11
        for i, a in enumerate(column):
            permuted[q[i]] = a
        assert faddeev_leverrier(matrix) == (p, tuple(permuted))


def test_oracle_runs_the_spectral_core_once_per_class(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return faddeev_leverrier(m)

    monkeypatch.setattr(spectral, "faddeev_leverrier", counted)
    clear_run_caches()
    representatives = [
        cremona_isometry(1, 2, 3) @ exceptional_shift(3),
        cremona_isometry(1, 2, 3) @ exceptional_shift(1),
    ]
    # the shift+3 representative is the composite itself: its class reads
    # the system's core, and the oracle runs the shift+1 class's alone
    assert representatives[0] == composite_T()
    eigen = spectral.eigensystem(60)
    assert calls == representatives[:1]
    select_orientation(eigen)
    assert calls == representatives
    # a whole verification run adds no pass: the run binds its matrix in
    # eigensystem(60) first, and the oracle reads that system
    calls.clear()
    clear_run_caches()
    assert run_verification(RunConfig()).verdict
    assert calls == representatives
    # a system of neither representative leaves the oracle both classes
    calls.clear()
    with pytest.raises(CertificationError, match="differs from the fixed composite"):
        select_orientation(eigen._replace(transform=LatticeIsometry.identity()))
    assert calls == representatives[::-1]


def test_per_class_oracle_matches_a_witness_stage_per_reading(eigen):
    """Each reading's own spectral core at 12 digits and directly enclosed
    multiples give the assessment that the oracle derives from its class
    representative, the composite's class at the run's 60 digits."""
    tol = 10**12
    recomputed = []
    for reading in candidate_readings():
        try:
            _, column, s, lam, _, _, _ = _spectral_core(reading.matrix, tol)
            witness = _witness_stage(column, enclosed_multiples(column, lam), s, lam, tol)[3]
        except CertificationError as err:
            recomputed.append(CandidateAssessment(reading.name, False, f"no certified data: {err}"))
            continue
        bits = RealEnclosure.over(*lam).hi.denominator.bit_length() + 64
        recomputed.append(CandidateAssessment(reading.name, *witness_matches(witness, bits)))
    assessments = select_orientation(eigen).assessments
    assert len(assessments) == 14
    assert [repr(a) for a in assessments] == [repr(a) for a in recomputed]


def test_a_cold_run_encloses_each_spectral_core_once(monkeypatch, capsys):
    # eigensystem(60), whose core the oracle reads for the composite's class,
    # and the oracle's core of the shift+1 class at its 12 digits: each runs
    # one integer pass and one refinement, and takes the endpoint powers
    # once, for its column and the multiples -2 a_j alike
    from voljump import cli

    calls = []

    def count(name):
        kernel = getattr(spectral, name)
        monkeypatch.setattr(spectral, name, lambda *args: calls.append((name, args)) or kernel(*args))

    for name in ("faddeev_leverrier", "refine_bracket", "_endpoint_powers"):
        count(name)
    clear_run_caches()
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")
    assert [name for name, _ in calls] == ["faddeev_leverrier", "refine_bracket", "_endpoint_powers"] * 2
    one_slot = cremona_isometry(1, 2, 3) @ exceptional_shift(1)
    assert [calls[0][1], calls[3][1]] == [(composite_T(),), (one_slot,)]
    guard = 10**spectral.GUARD_DIGITS
    assert [calls[1][1][2], calls[4][1][2]] == [(1, 10**60 * guard), (1, 10**12 * guard)]
    assert calls[2][1][0] == spectral.eigensystem(60).eigenvalue


def test_an_undecided_reading_stops_the_oracle(monkeypatch, capsys):
    # a reading undecided by the oracle is no mismatch: the run stops with
    # exit 3 and names it, though the other readings still single out the
    # composite; this one is in the composite's class, so it is decided on
    # the run's core, at the run's 60 digits
    from voljump import cli

    eigen = spectral.eigensystem(60)
    undecided = candidate_readings()[2]
    assert undecided.base == eigen.transform
    assert undecided.name != select_orientation(eigen).selected
    stage, calls = spectral._witness_stage, []

    def budget(column, scaled, s, lam, tol):
        if tol == 10**12:  # the oracle's, not eigensystem(60)'s
            calls.append(lam)
            if len(calls) == 3:
                raise PrecisionBudgetError("synthetic")
        return stage(column, scaled, s, lam, tol)

    monkeypatch.setattr(spectral, "_witness_stage", budget)
    with pytest.raises(PrecisionBudgetError) as raised:
        select_orientation(eigen)
    assert str(raised.value) == f"orientation reading {undecided.name}: synthetic"
    assert calls[2] == eigen.eigenvalue
    calls.clear()
    assert cli.main(["verify"]) == 3
    assert f"orientation reading {undecided.name}: synthetic" in capsys.readouterr().err


def test_a_coarse_eigenvalue_leaves_the_eigenvector_undecided(monkeypatch, capsys):
    # lambda refined only to width 2^-20: the eigenvector's enclosure is wider
    # than 10^-12, let alone 10^-60, which asks for a finer eigenvalue
    from voljump import cli

    refine = spectral.refine_bracket
    monkeypatch.setattr(spectral, "refine_bracket", lambda p, bracket, tol: refine(p, bracket, (1, 1 << 20)))
    clear_run_caches()
    message = "eigenvector enclosure wider than requested; refine the eigenvalue"
    for tol in (10**12, 10**60):
        with pytest.raises(PrecisionBudgetError) as raised:
            _spectral_core(composite_T(), tol)
        assert str(raised.value) == message
    assert cli.main(["verify"]) == 3
    assert capsys.readouterr().err == f"precision too low to decide a certificate: {message}\n"


def test_the_unrefined_bracket_leaves_the_eigenvector_undecided(monkeypatch, capsys):
    # lambda's isolating bracket on s starts at 1, and s(1) != 0 puts lambda
    # above 1 there: unrefined, it is too coarse (exit 3), not a failed certificate
    from voljump import cli

    _, bracket = _dominant_spectrum(faddeev_leverrier(composite_T())[0])
    assert bracket[0] == bracket[2]
    monkeypatch.setattr(spectral, "refine_bracket", lambda p, bracket, tol: bracket)
    clear_run_caches()
    message = "eigenvector enclosure wider than requested; refine the eigenvalue"
    with pytest.raises(PrecisionBudgetError) as raised:
        _spectral_core(composite_T(), 10**12)
    assert str(raised.value) == message
    assert cli.main(["verify"]) == 3
    assert capsys.readouterr().err == f"precision too low to decide a certificate: {message}\n"


def test_core_failure_of_a_representative_reaches_its_class(monkeypatch, eigen):
    one_slot = faddeev_leverrier(cremona_isometry(1, 2, 3) @ exceptional_shift(1))[0]
    spectrum = spectral._dominant_spectrum
    seen = []

    def failing(p):
        seen.append(p)
        if p == one_slot:
            raise CertificationError("synthetic")
        return spectrum(p)

    monkeypatch.setattr(spectral, "_dominant_spectrum", failing)
    report = select_orientation(eigen)
    # the composite's class reads the system; the shift+1 core fails once,
    # and its error fails each of its class's 8 readings
    assert seen == [one_slot]
    assert "shift+3" in report.selected
    one_slot_class = [a for a in report.assessments if "shift+1" in a.name or "shift-1" in a.name]
    assert len(one_slot_class) == 8
    assert all(a == (a.name, False, "no certified data: synthetic") for a in one_slot_class)


def test_a_failed_eigen_relation_of_the_other_class_fails_its_readings(monkeypatch, eigen):
    # a_4 + s leaves the shift+1 core's a(lambda) as it is, but not row 4 of
    # its relation: each reading of the class has no certified data
    one_slot = cremona_isometry(1, 2, 3) @ exceptional_shift(1)
    kernel = spectral.faddeev_leverrier

    def corrupted(m):
        p, column = kernel(m)
        if m == one_slot:
            s = _dominant_spectrum(p)[0]
            column = (*column[:4], combine((1, 1), (column[4], s)), *column[5:])
        return p, column

    monkeypatch.setattr(spectral, "faddeev_leverrier", corrupted)
    report = select_orientation(eigen)
    assert "shift+3" in report.selected
    one_slot_class = [a for a in report.assessments if "shift+1" in a.name or "shift-1" in a.name]
    assert len(one_slot_class) == 8
    detail = "no certified data: eigen-relation row 4 of (xI - T) a = p e_0 fails"
    assert all(a == (a.name, False, detail) for a in one_slot_class)


@pytest.mark.parametrize("q", [(0,) * 11, (1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10)])
def test_conjugator_must_be_a_slot_permutation_fixing_h(monkeypatch, q, eigen):
    # every entry of the all-ones matrix is 1, so any q passes the
    # index-permuted equality; the oracle must still reject a q that is no
    # permutation, or one that moves slot 0
    ones = LatticeIsometry([[1] * 11] * 11)
    readings = [Reading("a", ones, "a", ones, tuple(range(11))), Reading("b", ones, "a", ones, q)]
    monkeypatch.setattr(spectral, "candidate_readings", lambda: readings)
    with pytest.raises(CertificationError, match="conjugator of b does not carry a to it"):
        select_orientation(eigen)


#: SHA-256 of what the frozen API reads of `eigensystem(d)`, computed before
#: the run path dropped `Fraction`s: a grid or bracket kept in other terms
#: (such as an unreduced denominator of lambda.hi) moves these first.
FROZEN_API_DIGESTS = {
    20: "b037f5f597735e5b8fd4e2f28a663de9da95f0544b83e051134b3f76cca84325",
    60: "58e315fb60abcb9a4c38a75bb64610032aa7da96bbcd5f572dcd8d6a3280a444",
    400: "01823eb0f7f673ff1ad970b4bab0d73477c17982f282ccba9bca049bffe77271",
}


@pytest.mark.parametrize("digits", sorted(FROZEN_API_DIGESTS))
def test_frozen_api_values_are_pinned(digits):
    eigen = spectral.eigensystem(digits)
    s = eigen.off_unit_factor
    bound = 1 + Fraction(max(map(abs, s.coeffs[:-1])), abs(s.leading))
    brackets = isolate_real_roots(s, -bound, bound)
    parts = [
        eigen.grid_bits,
        (eigen.dominant_value.lo, eigen.dominant_value.hi),
        [(c.lo, c.hi) for c in eigen.nef_witness.coeffs],
        (eigen.line_component.lo, eigen.line_component.hi),
        brackets,
        [refine_isolated_root(s, lo, hi, Fraction(1, 10**digits)) for lo, hi in brackets],
    ]
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == FROZEN_API_DIGESTS[digits]
