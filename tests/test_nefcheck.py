import gc
import itertools
import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from voljump import nefcheck, spectral
from voljump.cli import main
from voljump.errors import CertificationError, PrecisionBudgetError
from voljump.nefcheck import (
    ORDERING,
    CandidateCurve,
    Certificates,
    CheckResult,
    MarginRow,
    _canonical_walk,
    _conics,
    _decided_walk,
    _degree_one_candidates,
    _subset_leaves,
    bigness_certificates,
    cauchy_schwarz_cutoff,
    check_degree_one,
    check_degree_two,
    cutoff_margin,
    enumerate_feasible,
    extreme_candidates,
    full_report,
    margin,
    margin_at_midpoints,
)
from voljump.intervals import ClassEnclosure, RealEnclosure, decimal_string
from voljump.polynomials import IntPoly, combine
from voljump.reference import TABLE_MILLI, TABLE_ROWS, TABLE_TOLERANCE, WEIGHT_ORDER

from helpers import (
    bump_minimum_weight,
    canonical_candidates,
    column_values,
    degree_two_candidates,
    is_canonical,
    is_feasible,
    margin_numerator,
)

MILLI = Fraction(1, 1000)


def approx(enclosure, reference, tolerance):
    return abs(enclosure.midpoint - reference) <= tolerance


def min_margin(d, witness):
    """The margin-minimizing candidate for degree d in 1..6 by interval
    margins, sign certified: degree 1 over the geometric list (minimum 0, at
    the distinguished line), degree 2 over the conic quintuples, degrees 3..6
    over the full canonical feasible set."""
    if d == 1:
        rows = check_degree_one(witness)
        assert all(row.exact_zero or row.margin.is_positive() for row in rows)
        return rows[0]
    if d == 2:
        rows = check_degree_two(witness)
    elif 3 <= d <= 6:
        rows = [MarginRow(c, margin(c, witness)) for c in canonical_candidates(d)]
    else:
        raise ValueError(f"degree must be in 1..6, got {d}")
    row = min(rows, key=lambda r: (r.margin.midpoint, r.candidate.mults))
    assert row.margin.is_positive()
    return row


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


def brute_force_canonical_patterns(d):
    """Oracle: every multiset of ten multiplicities within the two budgets
    (sum a_i^2 <= d^2 + 2, sum a_i <= 3d), as its pattern sorted descending."""
    box = range(isqrt(d * d + 2) + 1)
    return {
        combo[::-1]
        for combo in itertools.combinations_with_replacement(box, 10)
        if sum(a * a for a in combo) <= d * d + 2 and sum(combo) <= 3 * d
    }


@pytest.mark.parametrize(
    "degree,count", [(3, 25), (4, 62), (5, 138), (6, 293)]
)
def test_enumeration_counts(degree, count):
    candidates = enumerate_feasible(degree)
    assert len(candidates) == count
    patterns = {tuple(sorted(c.mults, reverse=True)) for c in candidates}
    assert len(patterns) == count  # one representative per rearrangement class
    assert patterns == brute_force_canonical_patterns(degree)
    for c in candidates:
        assert is_feasible(c) and is_canonical(c)


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
    assert all(is_feasible(c) for c in expanded)
    assert {tuple(sorted(c.mults, reverse=True)) for c in expanded} == {
        tuple(sorted(c.mults, reverse=True)) for c in canonical
    }
    # rearrangement inequality: the canonical representative minimizes the margin.
    # The witness's midpoints are (lo_i + hi_i) / 2^(bits + 1), so each margin
    # at the midpoints is an integer numerator over that one denominator
    bits, witness = eigen.grid_bits, eigen.nef_witness
    mids = [lo + hi for lo, hi in eigen.witness_numerators]  # -t_i

    def numerator(c):
        return (c.degree << bits + 1) + sum(a * m for a, m in zip(c.mults, mids) if a)

    worst_by_pattern = {}
    for c in expanded:
        key = tuple(sorted(c.mults, reverse=True))
        value = numerator(c)
        if key not in worst_by_pattern or value < worst_by_pattern[key]:
            worst_by_pattern[key] = value
    for c in canonical:
        key = tuple(sorted(c.mults, reverse=True))
        assert margin_at_midpoints(c, witness) == Fraction(numerator(c), 2 << bits)
        assert numerator(c) == worst_by_pattern[key]


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
    bumped = bump_minimum_weight(CandidateCurve(3, nine_ones))
    assert not is_feasible(bumped)  # multiplicity sum 10 > 9
    zero = CandidateCurve(3, (0,) * 10)
    assert is_feasible(bump_minimum_weight(zero))  # never extreme


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
    assert is_feasible(line_through_heavy)
    assert margin(line_through_heavy, eigen.nef_witness).hi < 0
    conic_through_six = CandidateCurve(2, (1, 1, 0, 1, 1, 1, 1, 0, 0, 0))
    assert is_feasible(conic_through_six)
    assert margin(conic_through_six, eigen.nef_witness).hi < 0


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
    # the direct sum of squares decides; the line component does not enter
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
    ).hi < 0


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


# -- margins and identities from the witness polynomials -------------------------------


def all_candidates():
    candidates = _degree_one_candidates() + degree_two_candidates()
    for d in range(3, 7):
        candidates += canonical_candidates(d)
    assert len(candidates) == 826
    return candidates


def test_margin_numerators_match_interval_margins(eigen):
    d, _, *n = eigen.witness_values
    for c in all_candidates():
        numerator = margin_numerator(c, d, n)
        expected = margin(c, eigen.nef_witness)
        got = eigen.quotient(numerator, d)
        # both enclose the same margin, each at width far below 1e-60
        assert got.overlaps(expected)
        assert max(got.width, expected.width) <= Fraction(1, 10**60)
        if c == CandidateCurve.line():
            assert numerator[0] <= 0 <= numerator[1] and expected.contains_zero()
        else:
            assert (numerator[0] > 0) == expected.is_positive()
            assert (numerator[1] < 0) == (expected.hi < 0)


def test_report_rows_come_from_the_numerators(eigen, nef):
    d, _, *n = eigen.witness_values
    assert nef.degree_one[0].margin == RealEnclosure.exact(0)
    for row in nef.degree_one[1:] + (nef.degree_two_minimum,):
        assert row.margin == eigen.quotient(margin_numerator(row.candidate, d, n), d)


def with_witness(eigen, polys):
    """The eigensystem with other witness polynomials and their values."""
    values = tuple(column_values(polys, eigen.eigenvalue))
    return eigen._replace(witness_polynomials=tuple(polys), witness_values=values)


def shifted(p, k=0):
    """p + x^k."""
    return combine((1, 1), (p, IntPoly((0,) * k + (1,))))


def verdicts(eigen):
    return {c.name: c.passed for c in full_report(eigen).checks}


def test_enumeration_lines_fail_when_the_ordering_premise_fails(eigen):
    # N_4 and N_5 carry the two heaviest weights (WEIGHT_ORDER[:2]); swapped,
    # the t-ordering fails, and the sorted patterns no longer cover every
    # candidate (rearrangement inequality)
    assert WEIGHT_ORDER[:2] == (4, 5)
    values = list(eigen.witness_values)  # D, B, N_1..N_10
    values[5], values[6] = values[6], values[5]
    checks = {c.name: c for c in full_report(eigen._replace(witness_values=tuple(values))).checks}
    premise = "witness coefficient ordering certified"
    assert not checks[premise].passed
    for name in (
        "degrees 3..6 full enumeration margins positive",
        "degrees 3..6 minimum attained on the extreme set",
    ):
        assert not checks[name].passed
        assert checks[name].detail == f"premise failed: {premise}"


def test_the_ordering_line_fails_only_on_a_pair_proven_out_of_order(eigen):
    # (t_4, t_5) overlap, which alone would leave the premise undecided, but
    # swapping N_2 and N_6 proves t_2 < t_6: the line fails and names that pair
    values = list(eigen.witness_values)  # D, B, N_1..N_10
    values[5] = (values[6][0], values[5][1])
    values[3], values[7] = values[7], values[3]
    checks = {c.name: c for c in full_report(eigen._replace(witness_values=tuple(values))).checks}
    assert (checks[ORDERING].passed, checks[ORDERING].detail) == (False, "t_2 > t_6 not certified")


DEGREE_ONE = "degree-1 margins nonnegative"


def test_line_class_numerator_is_the_zero_polynomial(eigen, nef):
    # the identity D - N1 - N2 - N3 = 0 itself is pinned on `_witness_stage`
    # (tests/test_spectral.py); here it is the degree-1 line's premise
    assert nef.zero_witnesses[0].margin == RealEnclosure.exact(0)
    d, b, *n = eigen.witness_polynomials
    # a mutation of D or of a line-index N_i breaks the identity
    for polys in ((shifted(d), b, *n), (d, b, shifted(n[0], 3), *n[1:])):
        checks = {c.name: c for c in full_report(with_witness(eigen, polys)).checks}
        assert checks[DEGREE_ONE] == (DEGREE_ONE, False, "D - N1 - N2 - N3 != 0 as polynomials")


def test_a_failed_line_identity_reports_no_exact_zero(eigen, nef):
    # N_1 + x^12 breaks D - N1 - N2 - N3 = 0 while the values stay, so the
    # line's margin straddles 0: its row is not exact and no zero witness is kept
    d, b, *n = eigen.witness_polynomials
    report = full_report(eigen._replace(witness_polynomials=(d, b, shifted(n[0], 12), *n[1:])))
    checks = {c.name: c for c in report.checks}
    assert checks[DEGREE_ONE] == (DEGREE_ONE, False, "D - N1 - N2 - N3 != 0 as polynomials")
    line = report.degree_one[0]
    assert line.candidate == CandidateCurve.line() and not line.exact_zero
    assert line.margin.contains_zero() and line.margin != RealEnclosure.exact(0)
    assert report.zero_witnesses == ()
    assert len(report.degree_one) == len(nef.degree_one) == 56
    assert report.degree_one[1:] == nef.degree_one[1:]
    # the certified identity keeps the exact zero row in both fields
    assert nef.zero_witnesses == nef.degree_one[:1] and nef.degree_one[0].exact_zero


def test_a_nonpositive_exceptional_class_fails_the_degree_one_line(eigen):
    # N_10(lambda) < 0 with every polynomial kept: the identity holds, t_10 > 0 does not
    values = list(eigen.witness_values)  # D, B, N_1..N_10
    values[11] = (-values[11][1], -values[11][0])
    checks = {c.name: c for c in full_report(eigen._replace(witness_values=tuple(values))).checks}
    detail = "a two-point line or exceptional class not certified positive"
    assert checks[DEGREE_ONE] == (DEGREE_ONE, False, detail)


def test_square_sum_identity_is_divisible_by_s(eigen):
    d, b, *n = eigen.witness_polynomials
    s = eigen.off_unit_factor
    square_sum = combine((1,) * 10 + (-1, 2), [p * p for p in (*n, d, b)])
    assert square_sum != IntPoly([0]) and square_sum.scaled_remainder(s) == IntPoly([0])
    # a mutation of B keeps the line class but breaks the identity, and with
    # it the cutoff that rests on it
    checks = {c.name: c for c in full_report(with_witness(eigen, (d, shifted(b), *n))).checks}
    assert checks[DEGREE_ONE].passed
    assert not checks["square-sum identity certified"].passed
    # the line that rests on the identity names it as its failed premise
    name = "Cauchy-Schwarz cutoff covers all higher degrees"
    assert checks[name] == (name, False, "premise failed: square-sum identity certified")
    # so does a mutation of a non-line N_i
    checks = verdicts(with_witness(eigen, (d, b, *n[:9], shifted(n[9], 2))))
    assert not checks["square-sum identity certified"]


def test_extreme_set_minimum_is_decided_on_whole_enclosures(eigen, monkeypatch):
    """An extreme leaf [10, 30] and a non-extreme leaf [5, 40]: the extreme
    midpoint is the lower, yet the other margin may lie below it."""
    extreme, other = (2,) + (1,) * 9, (1,) * 10
    decided = [(extreme, 5, 9, True), (other, 9, 40, False)]
    undecided = [(extreme, 10, 30, True), (other, 5, 40, False)]
    name = "degrees 3..6 minimum attained on the extreme set"

    def line(walks):
        monkeypatch.setattr(
            nefcheck, "_canonical_walk", lambda d, emit, d_value, n_values: [*map(emit, walks[d])]
        )
        [check] = [c for c in full_report(eigen).checks if c.name == name]
        return check

    assert line(dict.fromkeys(range(3, 7), decided)).passed
    check = line({3: decided, 4: undecided, 5: decided, 6: undecided})
    assert check == (name, False, "extreme-set minimum not certified least at degree 4")
    # a degree with no extreme leaf decides nothing either
    check = line({3: decided, 4: decided, 5: [(other, 5, 40, False)], 6: decided})
    assert check == (name, False, "extreme-set minimum not certified least at degree 5")


# -- the premise rule ------------------------------------------------------------------


def test_a_line_whose_premise_failed_fails_naming_it():
    checks = Certificates()
    checks.record("premise", False, "its own detail")
    checks.record("held", True)
    checks.record("claim", True, "its own test holds", "held", "premise")
    assert checks[-1] == CheckResult("claim", False, "premise failed: premise")
    # with every premise passed the line keeps its own verdict and detail
    checks.record("other claim", True, "its own test holds", "held")
    checks.record("failed claim", False, "its own test fails", "held")
    assert checks[-2:] == [
        ("other claim", True, "its own test holds"),
        ("failed claim", False, "its own test fails"),
    ]


def test_a_chained_failure_names_the_direct_premise():
    checks = Certificates()
    checks.record("a", False)
    checks.record("b", True, "", "a")
    checks.record("c", True, "", "b")
    assert checks == [("a", False, ""), ("b", False, "premise failed: a"), ("c", False, "premise failed: b")]


def test_a_premise_must_name_an_earlier_line():
    checks = Certificates()
    checks.record("a", True)
    with pytest.raises(ValueError, match="premise 'later' of 'claim' names no earlier line"):
        checks.record("claim", True, "", "a", "later")
    assert checks == [("a", True, "")]


def test_a_line_is_recorded_once():
    # a line that arrived settled, as the nef lines do in a run, counts too
    checks = Certificates([CheckResult("a", True)])
    with pytest.raises(ValueError, match="certificate 'a' recorded twice"):
        checks.record("a", False)
    assert checks == [("a", True, "")]


def test_a_default_run_has_distinct_line_names():
    from voljump.report import run_verification

    names = [c.name for c in run_verification().certificates]
    assert len(names) == len(set(names)) == 23
    assert names.index(ORDERING) < names.index("degrees 3..6 full enumeration margins positive")


def test_bigness_of_the_report_is_exact(eigen, nef):
    (d_lo, d_hi), (b_lo, b_hi) = eigen.witness_values[:2]
    l_squared = nef.bigness.witness_self_pairing
    assert l_squared.lo * d_hi**2 <= 2 * b_lo**2 and 2 * b_hi**2 <= l_squared.hi * d_lo**2
    assert nef.bigness.volume_lower_bound == 2 * eigen.line_component.square()
    # the direct interval evaluation of L^2 agrees
    assert l_squared.overlaps(eigen.nef_witness.self_pair())
    # the square-sum line prints both, rounded to 6 places
    [detail] = [c.detail for c in nef.checks if c.name == "square-sum identity certified"]
    mids = [decimal_string(*e.midpoint.as_integer_ratio(), 6) for e in nef.bigness]
    assert detail == (
        f"sum N_i^2 - D^2 + 2 B^2 = 0 mod s: L^2 = 2 B^2 / D^2 = {mids[0]}..., "
        f"(1 - beta)^2 L^2 = 2 beta^2 = {mids[1]}..."
    )
    assert mids == ["0.062866", "0.045357"]


# -- the one-pass kernel against the per-candidate reference ----------------------------


def walk(d, *values):
    """The leaves `_canonical_walk` emits, in order."""
    leaves = []
    _canonical_walk(d, leaves.append, *values)
    return leaves


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_canonical_walk_matches_the_per_candidate_reference(eigen, degree):
    d, _, *n = eigen.witness_values
    reference = canonical_candidates(degree)
    leaves = walk(degree, d, n)
    assert [leaf[0] for leaf in leaves] == [c.mults for c in reference]
    for (_, lo, hi, extreme), c in zip(leaves, reference):
        assert (lo, hi) == margin_numerator(c, d, n)
        assert extreme == (not is_feasible(bump_minimum_weight(c)))
    # the public enumeration reads the same walk
    assert enumerate_feasible(degree) == reference
    assert extreme_candidates(degree) == [
        c for c, leaf in zip(reference, leaves) if leaf[3]
    ]


@pytest.mark.parametrize("case", ["run", 7, 8, "straddling"])
@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_decided_walk_keeps_what_the_list_of_leaves_gives(eigen, degree, case):
    # the run's values, wide random ones with either sign, and values that
    # make every margin enclosure hold 0 (lo <= 0 < hi)
    d, _, *n = eigen.witness_values
    if case == "straddling":
        d, n = (0, 2**90), [(k, 2 * k) for k in range(1, 11)]
    elif case != "run":
        rng = random.Random(case)
        lows = [rng.randrange(-(2**80), 2**80) for _ in range(11)]
        d, *n = ((lo, lo + rng.randrange(2**80)) for lo in lows)
    if degree == 2:
        # the conics, their leaves built one candidate at a time
        leaves = [(c.mults, *margin_numerator(c, d, n), False) for c in degree_two_candidates()]
        assert len(leaves) == 252

        def produce(emit):
            _subset_leaves(2, itertools.combinations(range(10), 5), emit, d, n)
    else:
        leaves = walk(degree, d, n)

        def produce(emit):
            _canonical_walk(degree, emit, d, n)
    assert _decided_walk(produce) == (
        len(leaves),
        min(leaves, key=lambda leaf: (leaf[1] + leaf[2], leaf[0])),
        tuple(leaf for leaf in leaves if leaf[3]),
        all(leaf[1] > 0 for leaf in leaves),
        min((leaf[1] for leaf in leaves if not leaf[3]), default=None),
    )


@pytest.mark.parametrize("seed", range(40))
def test_conics_give_what_the_252_decided_leaves_give(seed):
    # bounds from small ranges, so that the fifth-largest N_k.hi and
    # N_k.lo + N_k.hi often tie and "every lo > 0" goes either way
    rng = random.Random(seed)

    def bounds(low, high):
        lo = rng.randrange(low, high)
        return lo, lo + rng.randrange(5)

    d, n = bounds(8, 20), [bounds(-1, 6) for _ in range(10)]
    count, minimum, _, positive, _ = _decided_walk(
        lambda emit: _subset_leaves(2, itertools.combinations(range(10), 5), emit, d, n)
    )
    assert _conics(d, n) == (count, minimum, positive)


def subset_leaves(degree, subsets, d, n):
    """The leaves `_subset_leaves` emits, as a list."""
    leaves = []
    _subset_leaves(degree, subsets, leaves.append, d, n)
    return leaves


def test_subset_leaves_match_the_per_candidate_reference(eigen):
    d, _, *n = eigen.witness_values
    conics = degree_two_candidates()
    leaves = subset_leaves(2, itertools.combinations(range(10), 5), d, n)
    assert [leaf[0] for leaf in leaves] == [c.mults for c in conics]
    assert [leaf[1:] for leaf in leaves] == [(*margin_numerator(c, d, n), False) for c in conics]
    lines = _degree_one_candidates()[:46]
    subsets = [(0, 1, 2)] + list(itertools.combinations(range(10), 2))
    leaves = subset_leaves(1, subsets, d, n)
    assert [leaf[0] for leaf in leaves] == [c.mults for c in lines]
    assert [leaf[1:] for leaf in leaves] == [(*margin_numerator(c, d, n), False) for c in lines]
    # the exceptional classes E_i: the numerator is N_i itself
    exceptional = _degree_one_candidates()[46:]
    assert [margin_numerator(c, d, n) for c in exceptional] == list(n)


@pytest.mark.parametrize("seed", [5, 6])
def test_subset_leaves_match_the_reference_on_wide_random_values(seed):
    # numerators as wide as the run's, with either sign and lo <= hi
    rng = random.Random(seed)

    def bounds():
        lo = rng.randrange(-(2**2800), 2**2800)
        return lo, lo + rng.randrange(2**64)

    d, n = bounds(), [bounds() for _ in range(10)]
    for degree, subsets in (
        (1, [(0, 1, 2), *itertools.combinations(range(10), 2)]),
        (2, list(itertools.combinations(range(10), 5))),
    ):
        leaves = subset_leaves(degree, subsets, d, n)
        reference = [
            CandidateCurve(degree, tuple(int(k in s) for k in range(10))) for s in subsets
        ]
        assert [leaf[0] for leaf in leaves] == [c.mults for c in reference]
        assert [leaf[1:] for leaf in leaves] == [
            (*margin_numerator(c, d, n), False) for c in reference
        ]


def test_walk_finds_a10_through_the_weight_order(monkeypatch):
    # with a_10 first in the weight order, bumping it never breaks the order
    monkeypatch.setattr(nefcheck, "WEIGHT_ORDER", (10, 4, 5, 1, 2, 6, 3, 7, 8, 9))
    leaves = walk(4)
    assert len(leaves) == 62
    last_differs = False
    for mults, _, _, extreme in leaves:
        assert mults[9] == max(mults)
        assert extreme == (not is_feasible(bump_minimum_weight(CandidateCurve(4, mults))))
        # bumping the last weight position (a_9 here) would give another flag
        bumped = mults[:8] + (mults[8] + 1, mults[9])
        last_differs |= extreme != (not is_feasible(CandidateCurve(4, bumped)))
    assert last_differs


def kept_rows(report):
    return [s.minimum for s in report.degrees] + [r for s in report.degrees for r in s.extreme_rows]


def test_enumeration_decides_candidates_the_report_keeps_no_row_for(eigen):
    """A margin numerator that is nonpositive only at one degree-5 candidate
    that is neither extreme nor the degree minimum fails the enumeration.

    Margin numerators are linear in (d, a), and no linear choice makes a
    non-extreme candidate the only nonpositive one of all 826 (the lines or
    the exceptional classes go with it), so these values single it out among
    the 518 enumerated candidates and keep the conics positive.
    """
    target = CandidateCurve(5, (1, 1, 1, 3, 3, 1, 1, 1, 1, 0))
    d = (20, 20)
    n = ((1, 1), (5, 5), (5, 5), (5, 5), (2, 18)) + ((5, 5),) * 4 + ((-2, -2),)
    enumerated = [c for degree in range(3, 7) for c in canonical_candidates(degree)]
    assert [c for c in enumerated if margin_numerator(c, d, n)[0] <= 0] == [target]
    assert is_feasible(bump_minimum_weight(target))
    assert all(margin_numerator(c, d, n)[0] > 0 for c in degree_two_candidates())
    report = full_report(eigen._replace(witness_values=(d, eigen.witness_values[1]) + n))
    assert target not in {r.candidate for r in kept_rows(report)}
    assert all(r.margin.is_positive() for r in kept_rows(report))
    checks = {c.name: c.passed for c in report.checks}
    assert not checks["degrees 3..6 full enumeration margins positive"]
    assert checks["degree-2 margins positive"]


def test_degree_two_decides_every_conic(eigen):
    """A margin numerator that is nonpositive only at a conic that is not the
    worst one (by midpoint) fails the degree-2 check."""
    target = CandidateCurve(2, (0, 0, 0, 0, 0, 1, 1, 1, 1, 1))
    d = (50, 50)
    n = ((19, 19),) * 5 + ((17, 20),) + ((20, 20),) * 4
    conics = degree_two_candidates()
    assert [c for c in conics if margin_numerator(c, d, n)[0] <= 0] == [target]
    assert all(margin_numerator(c, d, n)[0] > 0 for c in _degree_one_candidates()[1:])
    report = full_report(eigen._replace(witness_values=(d, eigen.witness_values[1]) + n))
    assert report.degree_two_minimum.candidate != target
    assert report.degree_two_minimum.margin.is_positive()
    checks = {c.name: c.passed for c in report.checks}
    assert not checks["degree-2 margins positive"]
    assert checks[DEGREE_ONE]


def test_walk_leaves_no_reference_cycle():
    # with the cyclic collector off, the leaves must go with the last reference
    gc.collect()
    gc.disable()
    try:
        _canonical_walk(5, [].append)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rows_are_built_on_first_read_only(monkeypatch, capsys):
    built = []
    row = nefcheck.MarginRow

    def spy(candidate, *args):
        built.append((candidate.degree, candidate.mults))
        return row(candidate, *args)

    monkeypatch.setattr(nefcheck, "MarginRow", spy)
    assert main(["verify"]) == 0
    assert main(["nef-verify"]) == 0
    assert built == []
    capsys.readouterr()
    assert main(["report"]) == 0
    nef = json.loads(capsys.readouterr().out)["nef"]
    kept = (
        nef["degree_one"]
        + [nef["degree_two"]["minimum"]]
        + [r for s in nef["degrees"] for r in [s["minimum"], *s["extreme_rows"]]]
        + nef["zero_witnesses"]
        + nef["extra_extreme_rows"]
    )
    # each kept row once, however many fields show it
    assert sorted(built) == sorted({(r["d"], tuple(r["a"])) for r in kept})
    assert len(built) == 106


def test_reference_rows_are_decided_on_the_whole_margin_enclosure(eigen, monkeypatch, capsys):
    # widening D(lambda)'s enclosure by 0.5% widens every margin to about
    # +-0.02 around nearly the same midpoint: each table row's midpoint stays
    # within the tolerance, but no row's enclosure lies within its band or
    # wholly outside it, so the table line is undecided and names its first row
    (d_lo, d_hi), *rest = eigen.witness_values
    slack = d_lo // 200
    widened = eigen._replace(witness_values=((d_lo - slack, d_hi + slack), *rest))
    first = "table row d = 3, a = (1, 0, 0, 3, 1, 0, 0, 0, 0, 0)"
    with pytest.raises(PrecisionBudgetError) as raised:
        full_report(widened)
    assert str(raised.value) == f"{first} enclosure straddles its reference band's edge"
    monkeypatch.setattr(spectral, "eigensystem", lambda digits: widened)
    assert main(["nef-verify"]) == 3
    assert capsys.readouterr().err == (
        f"precision too low to decide a certificate: {first} enclosure straddles its reference band's edge\n"
    )
    # one row wholly outside its band (its reference moved by 0.1) decides
    # the line, and every row is counted on its whole enclosure: none is within
    moved = ((*TABLE_MILLI[0][:2], TABLE_MILLI[0][2] + 100), *TABLE_MILLI[1:])
    monkeypatch.setattr(nefcheck, "TABLE_MILLI", moved)
    report = full_report(widened)
    table = {(d, a): m for d, a, m in TABLE_ROWS}
    rows = [r for s in report.degrees for r in s.extreme_rows
            if (r.candidate.degree, r.candidate.mults) in table]
    assert len(rows) == len(TABLE_ROWS)
    for row in rows:
        reference = table[row.candidate.degree, row.candidate.mults]
        assert abs(row.margin.midpoint - reference) <= TABLE_TOLERANCE
        assert max(reference - row.margin.lo, row.margin.hi - reference) > TABLE_TOLERANCE
    assert report.reference_rows_matched == 0
    [check] = [c for c in report.checks if c.name == "reference table reproduced"]
    assert (check.passed, check.detail) == (False, "0/34 rows within 0.01")
