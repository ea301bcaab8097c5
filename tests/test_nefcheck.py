from fractions import Fraction

import pytest

from voljump.errors import CertificationError
from voljump.nefcheck import (
    ENUMERATION_ROUND_BITS,
    CandidateCurve,
    _canonical_candidates,
    _degree_one_candidates,
    _degree_two_candidates,
    _grid_margin,
    _grid_midpoint_sum,
    _grid_numerators,
    _grid_row,
    bigness_certificates,
    cauchy_schwarz_cutoff,
    check_degree_one,
    check_degree_two,
    cutoff_margin,
    enumerate_feasible,
    extreme_candidates,
    margin,
    margin_at_midpoints,
    min_margin,
)
from voljump.intervals import ClassEnclosure, RealEnclosure
from voljump.reference import TABLE_ROWS, TABLE_TOLERANCE

MILLI = Fraction(1, 1000)


def approx(enclosure, reference, tolerance):
    return abs(enclosure.midpoint - reference) <= tolerance


# -- margins -----------------------------------------------------------------------


def test_margin_of_trivial_line(eigen):
    c = CandidateCurve(1, (0,) * 10)
    assert margin(c, eigen.nef_witness) == RealEnclosure.exact(1)


@pytest.mark.parametrize(
    "degree,mults,reference",
    [
        (3, (1, 0, 0, 3, 1, 0, 0, 0, 0, 0), 1169 * MILLI),
        (3, (1, 1, 1, 2, 1, 1, 1, 1, 0, 0), 45 * MILLI),
        (6, (2, 2, 2, 3, 3, 2, 1, 1, 1, 1), 195 * MILLI),
    ],
)
def test_margin_reference_rows(eigen, degree, mults, reference):
    value = margin(CandidateCurve(degree, mults), eigen.nef_witness)
    assert approx(value, reference, TABLE_TOLERANCE)


def test_margin_double_route(eigen):
    for d in range(3, 7):
        for c in enumerate_feasible(d):
            assert margin(c, eigen.nef_witness).contains(
                margin_at_midpoints(c, eigen.nef_witness)
            )


# -- degree one and two -------------------------------------------------------------


def test_degree_one_line_margin_encloses_zero(eigen):
    rows = check_degree_one(eigen.nef_witness)
    line_row = rows[0]
    assert line_row.exact_zero
    assert line_row.candidate == CandidateCurve.line()
    assert line_row.margin.contains_zero()


def test_degree_one_pairs_positive_and_worst(eigen):
    rows = check_degree_one(eigen.nef_witness)
    pair_rows = [r for r in rows if r.candidate.degree == 1 and not r.exact_zero]
    assert len(pair_rows) == 45
    assert all(r.margin.is_positive() for r in pair_rows)
    worst = min(pair_rows, key=lambda r: r.margin.midpoint)
    # from the reference decimals: 1 - t4 - t5 = 1 - 0.371 - 0.363 = 0.266
    assert worst.candidate.mults == (0, 0, 0, 1, 1, 0, 0, 0, 0, 0)
    assert approx(worst.margin, 266 * MILLI, TABLE_TOLERANCE)


def test_degree_zero_exceptional_margins(eigen):
    rows = check_degree_one(eigen.nef_witness)
    exceptional_rows = [r for r in rows if r.candidate.degree == 0]
    assert len(exceptional_rows) == 10
    assert all(r.margin.is_positive() for r in exceptional_rows)
    last = exceptional_rows[-1]
    assert last.candidate.mults[9] == -1
    assert approx(last.margin, 181 * MILLI, TABLE_TOLERANCE)


def test_degree_two_quintuples(eigen):
    rows = check_degree_two(eigen.nef_witness)
    assert len(rows) == 252
    assert all(r.margin.is_positive() for r in rows)
    worst = min(rows, key=lambda r: r.margin.midpoint)
    # 2 - (t1 + t2 + t4 + t5 + t6) = 2 - 1.766 = 0.234 from the references
    assert worst.candidate.mults == (1, 1, 0, 1, 1, 1, 0, 0, 0, 0)
    assert approx(worst.margin, 234 * MILLI, TABLE_TOLERANCE)
    tail_subset = CandidateCurve(2, (0, 0, 0, 0, 0, 1, 1, 1, 1, 1))
    tail_row = next(r for r in rows if r.candidate == tail_subset)
    assert approx(tail_row.margin, 735 * MILLI, TABLE_TOLERANCE)


# -- enumeration --------------------------------------------------------------------


def brute_force_canonical_count(d):
    """Oracle: enumerate the whole box without the sortedness constraint,
    then deduplicate by sorted multiplicity pattern."""
    square_budget, sum_budget = d * d + 2, 3 * d
    seen = set()
    vec = [0] * 10

    def rec(pos, total, square_total):
        if pos == 10:
            seen.add(tuple(sorted(vec, reverse=True)))
            return
        v = 0
        while total + v <= sum_budget and square_total + v * v <= square_budget:
            vec[pos] = v
            rec(pos + 1, total + v, square_total + v * v)
            v += 1
        vec[pos] = 0

    rec(0, 0, 0)
    return len(seen)


@pytest.mark.parametrize(
    "degree,count", [(3, 25), (4, 62), (5, 138), (6, 293)]
)
def test_enumeration_counts(degree, count):
    candidates = enumerate_feasible(degree)
    assert len(candidates) == count
    assert len(candidates) == brute_force_canonical_count(degree)
    assert len({c.mults for c in candidates}) == count
    for c in candidates:
        assert c.is_feasible() and c.is_canonical()


def test_enumeration_membership_examples():
    d3 = {c.mults for c in enumerate_feasible(3)}
    assert (1, 1, 1, 1, 1, 1, 1, 1, 1, 0) in d3
    assert all(sum(a * a for a in m) <= 11 for m in d3)
    assert (2, 2, 2, 0, 0, 0, 0, 0, 0, 0) not in d3  # sum of squares 12 > 11


@pytest.mark.parametrize("bad", [1, 2, 7])
def test_enumeration_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        enumerate_feasible(bad)
    with pytest.raises(ValueError):
        extreme_candidates(bad)


def _distinct_permutations(values):
    """All distinct orderings of a multiset."""
    if not values:
        yield ()
        return
    for v in sorted(set(values), reverse=True):
        rest = list(values)
        rest.remove(v)
        for tail in _distinct_permutations(rest):
            yield (v,) + tail


def test_uncanonical_enumeration_covers_orderings(eigen):
    canonical = enumerate_feasible(3)
    expanded = [
        CandidateCurve(3, perm) for c in canonical for perm in _distinct_permutations(c.mults)
    ]
    assert len(expanded) == len({c.mults for c in expanded})
    assert all(c.is_feasible() for c in expanded)
    assert {tuple(sorted(c.mults, reverse=True)) for c in expanded} == {
        tuple(sorted(c.mults, reverse=True)) for c in canonical
    }
    # rearrangement inequality: the canonical representative minimizes the margin
    worst_by_pattern = {}
    for c in expanded:
        key = tuple(sorted(c.mults, reverse=True))
        value = margin_at_midpoints(c, eigen.nef_witness)
        if key not in worst_by_pattern or value < worst_by_pattern[key]:
            worst_by_pattern[key] = value
    for c in canonical:
        key = tuple(sorted(c.mults, reverse=True))
        assert margin_at_midpoints(c, eigen.nef_witness) == worst_by_pattern[key]


# -- extreme candidates ---------------------------------------------------------------


@pytest.mark.parametrize("degree,count", [(3, 4), (4, 8), (5, 13), (6, 24)])
def test_extreme_counts(degree, count):
    assert len(extreme_candidates(degree)) == count


def test_reference_rows_are_extreme(eigen):
    for d in (3, 4, 5, 6):
        extremes = {c.mults for c in extreme_candidates(d)}
        for degree, mults, reference in TABLE_ROWS:
            if degree != d:
                continue
            assert mults in extremes
            value = margin(CandidateCurve(degree, mults), eigen.nef_witness)
            assert approx(value, reference, TABLE_TOLERANCE)


def test_extreme_membership_examples():
    nine_ones = (1, 1, 1, 1, 1, 1, 1, 1, 1, 0)
    assert nine_ones in {c.mults for c in extreme_candidates(3)}
    bumped = CandidateCurve(3, nine_ones).bump_minimum_weight()
    assert not bumped.is_feasible()  # multiplicity sum 10 > 9
    zero = CandidateCurve(3, (0,) * 10)
    assert zero.bump_minimum_weight().is_feasible()  # never extreme


# -- minima ------------------------------------------------------------------------


def test_min_margin_degree_one_is_line(eigen):
    row = min_margin(1, eigen.nef_witness)
    assert row.exact_zero
    assert row.candidate == CandidateCurve.line()


def test_min_margin_degree_three(eigen):
    row = min_margin(3, eigen.nef_witness)
    assert row.candidate.mults == (1, 1, 1, 2, 1, 1, 1, 1, 0, 0)
    assert approx(row.margin, 45 * MILLI, TABLE_TOLERANCE)
    assert row.margin.is_positive()


def test_min_margin_matches_extreme_minimum(eigen):
    # brute force over the full canonical set against the extreme subset
    for d in (3, 4, 5, 6):
        full = min_margin(d, eigen.nef_witness)
        extreme_rows = [
            (margin_at_midpoints(c, eigen.nef_witness), c.mults)
            for c in extreme_candidates(d)
        ]
        assert min(extreme_rows)[1] == full.candidate.mults


def test_min_margin_rejects_degree_out_of_range(eigen):
    with pytest.raises(ValueError):
        min_margin(7, eigen.nef_witness)


def test_generic_low_degree_candidates_fail_without_geometry(eigen):
    """The numeric constraints alone admit negative margins at d = 1, 2.

    These classes (a line through three high-weight points, a conic through
    six) are ruled out by the generality of the configuration, which is why
    degrees 1 and 2 get the geometric case split.
    """
    line_through_heavy = CandidateCurve(1, (1, 0, 0, 1, 1, 0, 0, 0, 0, 0))
    assert line_through_heavy.is_feasible()
    assert margin(line_through_heavy, eigen.nef_witness).is_negative()
    conic_through_six = CandidateCurve(2, (1, 1, 0, 1, 1, 1, 1, 0, 0, 0))
    assert conic_through_six.is_feasible()
    assert margin(conic_through_six, eigen.nef_witness).is_negative()


# -- cutoff and bigness ---------------------------------------------------------------


def test_cutoff_toy_value():
    # multipliers (1/2, 1/2, 0, ..., 0) give sum t^2 = 1/2, and
    # (d^2 + 2)/2 < d^2 iff d^2 > 2, so the cutoff is 2
    coeffs = (
        [RealEnclosure.exact(1)]
        + [RealEnclosure.exact(Fraction(-1, 2))] * 2
        + [RealEnclosure.exact(0)] * 8
    )
    witness = ClassEnclosure(coeffs)
    # a wide line-component interval keeps the identity route uninformative
    wide = RealEnclosure(Fraction(1, 1000), Fraction(999, 1000))
    assert cauchy_schwarz_cutoff(witness, wide) == 2


def test_cutoff_of_composite(eigen, nef):
    cutoff = cauchy_schwarz_cutoff(eigen.nef_witness, eigen.line_component)
    assert cutoff == nef.cutoff == 6
    assert cutoff <= 7
    for d in range(cutoff, cutoff + 21):
        assert cutoff_margin(eigen.nef_witness, eigen.line_component, d).is_positive()
    # one degree below the cutoff genuinely fails the bound
    assert cutoff_margin(
        eigen.nef_witness, eigen.line_component, cutoff - 1
    ).is_negative()


def test_bigness_certificates(eigen):
    data = bigness_certificates(eigen.nef_witness, eigen.line_component)
    assert data.witness_self_pairing.is_positive()
    # L^2 = 1 - 0.9366 = 0.063 from the reference decimals
    assert approx(data.witness_self_pairing, 63 * MILLI, TABLE_TOLERANCE)
    assert data.volume_lower_bound.is_positive()


def test_bigness_rejects_uncertified_component(eigen):
    with pytest.raises(CertificationError):
        bigness_certificates(
            eigen.nef_witness, RealEnclosure(Fraction(-1, 2), Fraction(1, 2))
        )


# -- aggregated report -----------------------------------------------------------------


def test_full_report_verdict(nef):
    assert all(c.passed for c in nef.checks)
    assert nef.reference_rows_matched == nef.reference_rows_total == 34
    assert nef.cutoff <= 7


def test_full_report_extra_extremes_include_unreproducible_row(nef):
    # the published d=6 row whose printed margin does not reproduce shows up
    # among the extra extreme candidates with its recomputed margin (~1.677)
    extras = {
        (r.candidate.degree, r.candidate.mults): r.margin.midpoint
        for r in nef.extra_extreme_rows
    }
    key = (6, (2, 1, 0, 4, 4, 1, 0, 0, 0, 0))
    assert key in extras
    assert abs(extras[key] - Fraction(1677, 1000)) <= Fraction(1, 100)
    assert len(extras) == 15


def test_full_report_degree_minima(nef):
    expected = {
        3: (1, 1, 1, 2, 1, 1, 1, 1, 0, 0),
        4: (2, 1, 1, 2, 2, 1, 1, 1, 1, 0),
        5: (2, 2, 2, 2, 2, 2, 1, 1, 1, 0),
        6: (2, 2, 2, 3, 3, 2, 1, 1, 1, 1),
    }
    for summary in nef.degrees:
        assert summary.minimum.candidate.mults == expected[summary.degree]
        assert summary.minimum.margin.is_positive()


# -- integer margins on the dyadic grid -------------------------------------------------


def test_grid_margins_equal_interval_margins(eigen):
    witness = eigen.nef_witness.outward(ENUMERATION_ROUND_BITS)
    los, his = _grid_numerators(witness)
    sums = [l + h for l, h in zip(los, his)]
    candidates = _degree_one_candidates() + _degree_two_candidates()
    for d in range(3, 7):
        candidates += _canonical_candidates(d)
    assert len(candidates) == 826
    scale = 2 * 2**ENUMERATION_ROUND_BITS
    for c in candidates:
        expected = margin(c, witness)
        got = _grid_row(c, _grid_margin(c, los, his)).margin
        assert (got.lo, got.hi) == (expected.lo, expected.hi)
        assert _grid_midpoint_sum(c, sums) == margin_at_midpoints(c, witness) * scale


def test_grid_rejects_off_grid_endpoint(eigen):
    witness = eigen.nef_witness.outward(ENUMERATION_ROUND_BITS)
    coeffs = list(witness.coeffs)
    coeffs[4] = RealEnclosure(coeffs[4].lo - Fraction(1, 3**50), coeffs[4].hi)
    with pytest.raises(CertificationError, match="off the 2\\^-320 grid"):
        _grid_numerators(ClassEnclosure(coeffs))
    # the unrounded witness has arbitrary denominators
    with pytest.raises(CertificationError):
        _grid_numerators(eigen.nef_witness)
