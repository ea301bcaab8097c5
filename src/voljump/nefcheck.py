"""Nef certificate for the witness class by exhaustive candidate checking.

The witness L = H - sum t_i E_i is nef iff it pairs nonnegatively with every
curve class C = dH - sum a_i E_i, i.e. d >= sum a_i t_i.  The verification
follows the construction's case split:

* d = 1: only the distinguished line (margin exactly zero by construction)
  and lines through at most two of the points occur as curves; the degree-0
  exceptional classes are checked alongside.
* d = 2: only conics through five of the points occur (252 index quintuples).
* 3 <= d <= 6: adjunction and canonical-degree bounds
  (sum a_i^2 <= d^2 + 2, sum a_i <= 3d) leave finitely many multiplicity
  vectors; all of them are checked, not just the extreme ones.
* d >= 7: a Cauchy-Schwarz cutoff settles every remaining degree at once.

Candidates at degrees 1 and 2 with three collinear or six co-conic points do
satisfy the numeric constraints but are excluded by the generality of the
point configuration; they are exactly why those degrees get the geometric
case split instead of the generic enumeration.

Margins are enclosures; a candidate passes when its margin is certified
positive (the distinguished line is the single exact-zero witness).  Since
every t_i is certified positive and the t-ordering is certified, checking
multiplicity vectors sorted along the weight order covers all rearrangements
(rearrangement inequality), which is how the enumeration stays small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .errors import CertificationError, PrecisionBudgetError
from .intervals import ClassEnclosure, RealEnclosure, decimal_string
from .lattice import DivisorClass
from .reference import TABLE_ROWS, TABLE_TOLERANCE, WEIGHT_ORDER
from .spectral import EigenSystem, line_pairing_identity_certified

#: Outward-rounding grid for enumeration margins; keeps denominators small
#: while leaving enclosures far tighter than any margin decided here.
ENUMERATION_ROUND_BITS = 320
_GRID = 1 << ENUMERATION_ROUND_BITS


@dataclass(frozen=True)
class CandidateCurve:
    """A curve-class candidate dH - sum a_i E_i.

    Multiplicities are nonnegative for honest curve candidates; the degree-0
    exceptional classes E_i are encoded with a single -1 entry so the same
    margin formula applies to them.
    """

    degree: int
    mults: tuple[int, ...]

    def __init__(self, degree: int, mults):
        values = tuple(int(a) for a in mults)
        if len(values) != 10:
            raise ValueError(f"need 10 multiplicities, got {len(values)}")
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "mults", values)

    @classmethod
    def exceptional(cls, i: int) -> "CandidateCurve":
        if not 1 <= i <= 10:
            raise ValueError(f"index out of range 1..10: {i}")
        return cls(0, tuple(-1 if j == i else 0 for j in range(1, 11)))

    @classmethod
    def line(cls) -> "CandidateCurve":
        """The distinguished line H - E1 - E2 - E3."""
        return cls(1, (1, 1, 1, 0, 0, 0, 0, 0, 0, 0))

    def as_class(self) -> DivisorClass:
        return DivisorClass([self.degree] + [-a for a in self.mults])

    def mult_sum(self) -> int:
        return sum(self.mults)

    def mult_square_sum(self) -> int:
        return sum(a * a for a in self.mults)

    def is_feasible(self) -> bool:
        """Adjunction and canonical-degree constraints on curve classes."""
        return (
            self.mult_square_sum() <= self.degree * self.degree + 2
            and self.mult_sum() <= 3 * self.degree
        )

    def weight_sorted(self) -> tuple[int, ...]:
        """Multiplicities read along the weight order (descending t_i)."""
        return tuple(self.mults[i - 1] for i in WEIGHT_ORDER)

    def is_canonical(self) -> bool:
        w = self.weight_sorted()
        return all(x >= y for x, y in zip(w, w[1:]))

    def bump_minimum_weight(self) -> "CandidateCurve":
        """Increment a_10, the minimum-weight coordinate (order not re-imposed)."""
        mults = list(self.mults)
        mults[9] += 1
        return CandidateCurve(self.degree, mults)


@dataclass(frozen=True)
class MarginRow:
    """A candidate with its certified margin d - sum a_i t_i."""

    candidate: CandidateCurve
    margin: RealEnclosure
    exact_zero: bool = False


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def margin(c: CandidateCurve, witness: ClassEnclosure) -> RealEnclosure:
    """Certified enclosure of d - sum a_i t_i (the pairing with the witness)."""
    total = RealEnclosure.exact(c.degree)
    for a, coeff in zip(c.mults, witness.coeffs[1:]):
        if a:
            total = total + a * coeff  # coeff = -t_i
    return total


def margin_at_midpoints(c: CandidateCurve, witness: ClassEnclosure) -> Fraction:
    """Margin against the exact rational midpoints; the second route."""
    total = Fraction(c.degree)
    for a, coeff in zip(c.mults, witness.coeffs[1:]):
        total += a * coeff.midpoint
    return total


def _grid_numerators(witness: ClassEnclosure) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lower and upper endpoints of the ten E-coefficients -t_i, as integers
    over 2**ENUMERATION_ROUND_BITS.

    The integer margins rest on every endpoint lying on that grid, so an
    endpoint off it fails the certificate instead of being rounded.
    """
    los: list[int] = []
    his: list[int] = []
    for coeff in witness.coeffs[1:]:
        for end, out in ((coeff.lo, los), (coeff.hi, his)):
            steps, rest = divmod(_GRID, end.denominator)
            if rest:
                raise CertificationError(
                    f"witness endpoint {end} is off the 2^-{ENUMERATION_ROUND_BITS} grid"
                )
            out.append(end.numerator * steps)
    return tuple(los), tuple(his)


def _grid_margin(c: CandidateCurve, los, his) -> tuple[int, int]:
    """Numerators over the grid of margin(c, witness): each a_i picks the
    endpoint of -t_i that bounds a_i * (-t_i) from below or above."""
    lo = hi = c.degree * _GRID
    for a, l, h in zip(c.mults, los, his):
        if a > 0:
            lo += a * l
            hi += a * h
        elif a < 0:
            lo += a * h
            hi += a * l
    return lo, hi


def _grid_midpoint_sum(c: CandidateCurve, sums) -> int:
    """2 * 2**ENUMERATION_ROUND_BITS * margin_at_midpoints(c, witness), where
    sums[i] is the sum of the two grid numerators of -t_i."""
    return 2 * c.degree * _GRID + sum(a * s for a, s in zip(c.mults, sums))


def _grid_row(c: CandidateCurve, bounds: tuple[int, int], exact_zero: bool = False) -> MarginRow:
    lo, hi = bounds
    return MarginRow(c, RealEnclosure(Fraction(lo, _GRID), Fraction(hi, _GRID)), exact_zero)


def _from_weight_pattern(pattern) -> tuple[int, ...]:
    mults = [0] * 10
    for pos, index in enumerate(WEIGHT_ORDER):
        mults[index - 1] = pattern[pos]
    return tuple(mults)


def _canonical_candidates(d: int) -> list[CandidateCurve]:
    sq_budget = d * d + 2
    sum_budget = 3 * d
    out: list[CandidateCurve] = []
    pattern = [0] * 10

    def rec(pos: int, prev: int, total: int, square_total: int) -> None:
        if pos == 10:
            out.append(CandidateCurve(d, _from_weight_pattern(pattern)))
            return
        top = min(prev, sum_budget - total, isqrt(sq_budget - square_total))
        for v in range(top, -1, -1):
            pattern[pos] = v
            rec(pos + 1, v, total + v, square_total + v * v)
        pattern[pos] = 0

    rec(0, min(sum_budget, isqrt(sq_budget)), 0, 0)
    return out


def _distinct_permutations(values: tuple[int, ...]):
    """All distinct orderings of a multiset, lexicographically descending."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    slot = [0] * len(values)

    def rec(pos: int):
        if pos == len(values):
            yield tuple(slot)
            return
        for v in sorted(counts, reverse=True):
            if counts[v]:
                counts[v] -= 1
                slot[pos] = v
                yield from rec(pos + 1)
                counts[v] += 1

    yield from rec(0)


def enumerate_feasible(d: int, canonical: bool = True):
    """All feasible multiplicity vectors for degree d in 3..6.

    Canonical means nonincreasing along the weight order (one representative
    per rearrangement class); with canonical=False an iterator over every
    distinct rearrangement is returned instead.
    """
    if not 3 <= d <= 6:
        raise ValueError(f"enumeration degree must be in 3..6, got {d}")
    candidates = _canonical_candidates(d)
    if canonical:
        return candidates

    def expand():
        for c in candidates:
            for perm in _distinct_permutations(c.weight_sorted()):
                yield CandidateCurve(d, _from_weight_pattern(perm))

    return expand()


def extreme_candidates(d: int) -> list[CandidateCurve]:
    """Canonical feasible vectors made infeasible by bumping a_10."""
    if not 3 <= d <= 6:
        raise ValueError(f"enumeration degree must be in 3..6, got {d}")
    return [
        c for c in _canonical_candidates(d) if not c.bump_minimum_weight().is_feasible()
    ]


def _degree_one_candidates() -> list[CandidateCurve]:
    """The distinguished line first, then the 45 two-point lines and the ten
    exceptional classes."""
    out = [CandidateCurve.line()]
    for i, j in itertools.combinations(range(1, 11), 2):
        out.append(CandidateCurve(1, tuple(1 if k in (i, j) else 0 for k in range(1, 11))))
    out.extend(CandidateCurve.exceptional(i) for i in range(1, 11))
    return out


def _degree_two_candidates() -> list[CandidateCurve]:
    return [
        CandidateCurve(2, tuple(1 if k in subset else 0 for k in range(1, 11)))
        for subset in itertools.combinations(range(1, 11), 5)
    ]


def check_degree_one(witness: ClassEnclosure) -> list[MarginRow]:
    """Margins of the degree <= 1 curve classes of a general configuration.

    The distinguished line (exact zero), the 45 two-point lines H - Ei - Ej,
    and the ten exceptional classes (margin t_i).
    """
    return [
        MarginRow(c, margin(c, witness), n == 0)
        for n, c in enumerate(_degree_one_candidates())
    ]


def check_degree_two(witness: ClassEnclosure) -> list[MarginRow]:
    """Margins of the 252 conic classes 2H - sum of five distinct E_i."""
    return [MarginRow(c, margin(c, witness)) for c in _degree_two_candidates()]


def _min_row(rows: list[MarginRow]) -> MarginRow:
    return min(rows, key=lambda r: (r.margin.midpoint, r.candidate.mults))


def min_margin(d: int, witness: ClassEnclosure) -> MarginRow:
    """The margin-minimizing candidate for degree d in 1..6, sign certified.

    Degree 1 minimizes over the geometric list (minimum 0, at the
    distinguished line); degree 2 over the conic quintuples; degrees 3..6
    over the full canonical feasible set.  For d >= 2 the minimum must be
    certified positive.
    """
    if d == 1:
        rows = check_degree_one(witness)
        for row in rows:
            if not row.exact_zero and not row.margin.is_positive():
                raise PrecisionBudgetError(
                    f"degree-1 margin not certified positive: {row.candidate.mults}"
                )
        return rows[0]
    if d == 2:
        row = _min_row(check_degree_two(witness))
    elif 3 <= d <= 6:
        row = _min_row(
            [MarginRow(c, margin(c, witness)) for c in _canonical_candidates(d)]
        )
    else:
        raise ValueError(f"degree must be in 1..6, got {d}")
    if not row.margin.is_positive():
        raise PrecisionBudgetError(
            f"degree-{d} minimum margin not certified positive: {row.margin}"
        )
    return row


def _square_sum_routes(
    witness: ClassEnclosure, line_component: RealEnclosure
) -> RealEnclosure:
    """Intersection of the two certified evaluations of sum t_i^2.

    Route one squares the witness coefficients; route two evaluates
    1 - 2 b^2 / (1-b)^2 from the line component.  Both enclose the same
    number, so their intersection does too (and is tighter).
    """
    direct = witness.multiplier_square_sum()
    ratio = line_component / (1 - line_component)
    via_identity = 1 - 2 * ratio.square()
    lo = max(direct.lo, via_identity.lo)
    hi = min(direct.hi, via_identity.hi)
    if lo > hi:
        raise CertificationError(
            "the two evaluations of sum t_i^2 exclude each other"
        )
    return RealEnclosure(lo, hi)


def cauchy_schwarz_cutoff(
    witness: ClassEnclosure, line_component: RealEnclosure
) -> int:
    """Smallest d0 with (sum t_i^2)(d^2 + 2) < d^2 certified for all d >= d0.

    The condition is equivalent to d^2 (1 - s) > 2 s for s = sum t_i^2 < 1,
    hence monotone in d: certifying it at d0 certifies every larger degree.
    """
    return _cutoff_degree(_square_sum_routes(witness, line_component))


def _cutoff_degree(s: RealEnclosure) -> int:
    if not s.hi < 1:
        raise CertificationError("sum of squared witness coefficients not below 1")
    d = 1
    while not (d * d) * (1 - s.hi) > 2 * s.hi:
        d += 1
        if d > 1000:
            raise CertificationError("no Cauchy-Schwarz cutoff below 1000")
    return d


def cutoff_margin(witness: ClassEnclosure, line_component: RealEnclosure, d: int) -> RealEnclosure:
    """Certified enclosure of d^2 - (sum t_i^2)(d^2 + 2), positive beyond the cutoff."""
    return _cutoff_margin(_square_sum_routes(witness, line_component), d)


def _cutoff_margin(s: RealEnclosure, d: int) -> RealEnclosure:
    return RealEnclosure.exact(d * d) - s * (d * d + 2)


@dataclass(frozen=True)
class BignessData:
    """Certified positivity data: the witness is big, and so is the dominant class."""

    witness_self_pairing: RealEnclosure  # L^2 = 1 - sum t_i^2
    volume_lower_bound: RealEnclosure  # (1 - beta)^2 L^2, from the decomposition


def bigness_certificates(
    witness: ClassEnclosure, line_component: RealEnclosure
) -> BignessData:
    if not (line_component.lo > 0 and line_component.hi < 1):
        raise CertificationError("line component not certified inside (0, 1)")
    l_squared = witness.self_pair()
    if l_squared.contains_zero():
        raise PrecisionBudgetError(f"L^2 enclosure {l_squared} not sign-certified")
    if not l_squared.is_positive():
        raise CertificationError(f"L^2 certified nonpositive: {l_squared}")
    lower = (1 - line_component).square() * l_squared
    if not lower.is_positive():
        raise PrecisionBudgetError(f"volume lower bound {lower} not certified positive")
    return BignessData(l_squared, lower)


@dataclass(frozen=True)
class DegreeSummary:
    degree: int
    candidate_count: int
    extreme_count: int
    minimum: MarginRow
    extreme_rows: tuple[MarginRow, ...]


@dataclass(frozen=True)
class NefReport:
    """Aggregated evidence that the witness class is nef and big."""

    degree_one: tuple[MarginRow, ...]
    degree_two_count: int
    degree_two_minimum: MarginRow
    degrees: tuple[DegreeSummary, ...]
    cutoff: int
    cutoff_checked_through: int
    bigness: BignessData
    zero_witnesses: tuple[MarginRow, ...]
    reference_rows_total: int
    reference_rows_matched: int
    extra_extreme_rows: tuple[MarginRow, ...]
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)


def _reference_lookup() -> dict[tuple[int, tuple[int, ...]], Fraction]:
    return {(d, a): m for d, a, m in TABLE_ROWS}


def full_report(eigen: EigenSystem) -> NefReport:
    """Run every nef check against one certified eigensystem.

    Margins are computed once, as integer numerators on the dyadic grid of
    the outward-rounded witness (`_grid_margin`); enclosures are built only
    for the rows the report keeps, and they equal what `margin` returns.
    """
    witness = eigen.nef_witness.outward(ENUMERATION_ROUND_BITS)
    los, his = _grid_numerators(witness)
    sums = tuple(l + h for l, h in zip(los, his))
    checks: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, passed, detail))

    def bounds_of(candidates: list[CandidateCurve]) -> list[tuple[int, int]]:
        return [_grid_margin(c, los, his) for c in candidates]

    def argmin(candidates: list[CandidateCurve], bounds, indices) -> int:
        # the midpoint order, (lo + hi) / 2, with the candidate as tie-break
        return min(indices, key=lambda i: (sum(bounds[i]), candidates[i].mults))

    # degree <= 1
    degree_one = tuple(
        _grid_row(c, _grid_margin(c, los, his), n == 0)
        for n, c in enumerate(_degree_one_candidates())
    )
    line_row = degree_one[0]
    line_ok = line_row.margin.contains_zero() and line_pairing_identity_certified(
        eigen.dominant_class
    )
    record(
        "degree-1 line-class margin is exactly zero",
        line_ok,
        f"interval of width {float(line_row.margin.width):.1e} around 0, "
        "plus the construction identity",
    )
    positive_rows = [r for r in degree_one if not r.exact_zero]
    record(
        "degree-1 margins positive",
        all(r.margin.is_positive() for r in positive_rows),
        f"{len(positive_rows)} classes (45 two-point lines, 10 exceptional)",
    )

    # degree 2
    conics = _degree_two_candidates()
    conic_bounds = bounds_of(conics)
    two_min_index = argmin(conics, conic_bounds, range(len(conics)))
    two_min = _grid_row(conics[two_min_index], conic_bounds[two_min_index])
    record(
        "degree-2 margins positive",
        all(lo > 0 for lo, _ in conic_bounds),
        f"{len(conics)} conic classes",
    )
    worst_pattern = CandidateCurve(
        2, _from_weight_pattern((1, 1, 1, 1, 1, 0, 0, 0, 0, 0))
    )
    record(
        "degree-2 reduction consistent with generic enumeration",
        len(conics) == 252
        and all(c.is_feasible() for c in conics)
        and two_min.candidate == worst_pattern,
        "worst conic equals the canonical top-weight quintuple",
    )

    # degrees 3..6
    summaries: list[DegreeSummary] = []
    reference = _reference_lookup()
    matched = 0
    extras: list[MarginRow] = []
    enumeration_positive = True
    extreme_agrees = True
    double_route = True
    for d in range(3, 7):
        candidates = _canonical_candidates(d)
        bounds = bounds_of(candidates)
        extremes = [
            i for i, c in enumerate(candidates)
            if not c.bump_minimum_weight().is_feasible()
        ]
        minimum = argmin(candidates, bounds, range(len(candidates)))
        if not all(lo > 0 for lo, _ in bounds):
            enumeration_positive = False
        if argmin(candidates, bounds, extremes) != minimum:
            extreme_agrees = False
        for c, (lo, hi) in zip(candidates, bounds):
            if not 2 * lo <= _grid_midpoint_sum(c, sums) <= 2 * hi:
                double_route = False
        extreme_rows = tuple(_grid_row(candidates[i], bounds[i]) for i in extremes)
        for r in extreme_rows:
            key = (d, r.candidate.mults)
            if key in reference:
                if abs(r.margin.midpoint - reference[key]) <= TABLE_TOLERANCE:
                    matched += 1
            else:
                extras.append(r)
        summaries.append(
            DegreeSummary(
                d,
                len(candidates),
                len(extreme_rows),
                _grid_row(candidates[minimum], bounds[minimum]),
                extreme_rows,
            )
        )
    record(
        "degrees 3..6 full enumeration margins positive",
        enumeration_positive,
        f"{sum(s.candidate_count for s in summaries)} canonical candidates",
    )
    record(
        "degrees 3..6 minimum attained on the extreme set",
        extreme_agrees,
        "full-set and extreme-set minimizers coincide",
    )
    record(
        "margins agree between interval and midpoint routes",
        double_route,
        "midpoint dot product inside every interval margin",
    )
    record(
        "reference table reproduced",
        matched == len(TABLE_ROWS),
        f"{matched}/{len(TABLE_ROWS)} rows within {float(TABLE_TOLERANCE)}",
    )

    # large degrees
    square_sum = _square_sum_routes(witness, eigen.line_component)
    cutoff = _cutoff_degree(square_sum)
    checked_through = cutoff + 20
    explicit = all(
        _cutoff_margin(square_sum, d).is_positive()
        for d in range(cutoff, checked_through + 1)
    )
    record(
        "Cauchy-Schwarz cutoff covers all higher degrees",
        cutoff <= 7 and explicit,
        f"cutoff degree {cutoff}, margins certified through {checked_through}",
    )

    bigness = bigness_certificates(witness, eigen.line_component)
    record(
        "witness self-intersection positive (big)",
        bigness.witness_self_pairing.is_positive(),
        f"L^2 = {decimal_string(bigness.witness_self_pairing.midpoint, 6)}...",
    )
    record(
        "volume lower bound for the dominant class positive",
        bigness.volume_lower_bound.is_positive(),
        f"(1-beta)^2 L^2 = {decimal_string(bigness.volume_lower_bound.midpoint, 6)}...",
    )

    return NefReport(
        degree_one=degree_one,
        degree_two_count=len(conics),
        degree_two_minimum=two_min,
        degrees=tuple(summaries),
        cutoff=cutoff,
        cutoff_checked_through=checked_through,
        bigness=bigness,
        zero_witnesses=(line_row,),
        reference_rows_total=len(TABLE_ROWS),
        reference_rows_matched=matched,
        extra_extreme_rows=tuple(extras),
        checks=tuple(checks),
    )
