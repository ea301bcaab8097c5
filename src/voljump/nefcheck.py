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

On the verification path the witness is t_i = N_i(lambda) / D(lambda) with
integer polynomials D and N_i of the adjugate column (see `spectral`), so
every margin is (d D - sum a_i N_i) / D: an integer combination of the
enclosures of D(lambda) and N_i(lambda) over one denominator, positive iff
its numerator is, since D(lambda) > 0 is certified.  The facts beyond the
margins are exact: the line class has margin exactly zero because
D - N_1 - N_2 - N_3 is the zero polynomial, the square-sum identity
sum t_i^2 = 1 - 2 beta^2 / (1 - beta)^2 is sum N_i^2 - D^2 + 2 B^2 = 0 mod s,
and bigness follows from L^2 = 2 B^2 / D^2 with B(lambda) != 0.  Since every
t_i is certified positive and the t-ordering is certified, checking
multiplicity vectors sorted along the weight order covers all rearrangements
(rearrangement inequality), which is how the enumeration stays small.  The
public functions on general witness enclosures (`margin`, `check_degree_one`,
`cauchy_schwarz_cutoff`, `bigness_certificates`, ...) use interval
arithmetic instead.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Sequence

from .errors import CertificationError, PrecisionBudgetError
from .intervals import ClassEnclosure, RealEnclosure, decimal_string
from .lattice import DivisorClass
from .polynomials import IntPoly, combine
from .reference import TABLE_ROWS, TABLE_TOLERANCE, WEIGHT_ORDER
from .spectral import EigenSystem


class CandidateCurve:
    """A curve-class candidate dH - sum a_i E_i.

    Multiplicities are nonnegative for honest curve candidates; the degree-0
    exceptional classes E_i are encoded with a single -1 entry so the same
    margin formula applies to them.  Value type compared and hashed by
    (degree, mults).
    """

    __slots__ = ("degree", "mults")

    def __init__(self, degree: int, mults):
        self.mults: tuple[int, ...] = tuple(int(a) for a in mults)
        if len(self.mults) != 10:
            raise ValueError(f"need 10 multiplicities, got {len(self.mults)}")
        self.degree = int(degree)

    def __eq__(self, other):
        if not isinstance(other, CandidateCurve):
            return NotImplemented
        return self.degree == other.degree and self.mults == other.mults

    def __hash__(self) -> int:
        return hash((self.degree, self.mults))

    def __repr__(self) -> str:
        return f"CandidateCurve({self.degree}, {self.mults})"

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


class MarginRow(NamedTuple):
    """A candidate with its certified margin d - sum a_i t_i."""

    candidate: CandidateCurve
    margin: RealEnclosure
    exact_zero: bool = False


class CheckResult(NamedTuple):
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
    """Margin against the exact rational midpoints of the witness enclosure."""
    total = Fraction(c.degree)
    for a, coeff in zip(c.mults, witness.coeffs[1:]):
        total += a * coeff.midpoint
    return total


def _margin_numerator(
    c: CandidateCurve, d_value: tuple[int, int], n_values: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """Enclosure of d D(lambda) - sum a_i N_i(lambda), the margin times
    D(lambda), from the enclosures of D(lambda) and the N_i(lambda) over one
    denominator: each a_i picks the endpoint that bounds -a_i N_i(lambda)
    from below or above."""
    lo, hi = c.degree * d_value[0], c.degree * d_value[1]
    for a, (n_lo, n_hi) in zip(c.mults, n_values):
        if a > 0:
            lo -= a * n_hi
            hi -= a * n_lo
        elif a < 0:
            lo -= a * n_lo
            hi -= a * n_hi
    return lo, hi


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


def enumerate_feasible(d: int) -> list[CandidateCurve]:
    """All feasible multiplicity vectors for degree d in 3..6, nonincreasing
    along the weight order (one representative per rearrangement class)."""
    if not 3 <= d <= 6:
        raise ValueError(f"enumeration degree must be in 3..6, got {d}")
    return _canonical_candidates(d)


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


def cauchy_schwarz_cutoff(
    witness: ClassEnclosure, line_component: RealEnclosure
) -> int:
    """Smallest d0 with (sum t_i^2)(d^2 + 2) < d^2 certified for all d >= d0.

    The condition is equivalent to d^2 (1 - s) > 2 s for s = sum t_i^2 < 1,
    hence monotone in d: certifying it at d0 certifies every larger degree.
    s is the direct sum of squares, sound for any witness enclosure;
    line_component is not needed by it (the identity
    s = 1 - 2 beta^2 / (1 - beta)^2 holds for the eigensystem's witness only,
    where `full_report` decides it exactly).
    """
    s = witness.multiplier_square_sum()
    return _cutoff_degree(1 - s.hi, 2 * s.hi)


def _cutoff_degree(gap, bound) -> int:
    """Smallest d with d^2 gap > bound, for gap > 0 (monotone in d)."""
    if not gap > 0:
        raise CertificationError("sum of squared witness coefficients not below 1")
    d = 1
    while not d * d * gap > bound:
        d += 1
        if d > 1000:
            raise CertificationError("no Cauchy-Schwarz cutoff below 1000")
    return d


def cutoff_margin(witness: ClassEnclosure, line_component: RealEnclosure, d: int) -> RealEnclosure:
    """Certified enclosure of d^2 - (sum t_i^2)(d^2 + 2), positive beyond the
    cutoff; sum t_i^2 as in `cauchy_schwarz_cutoff`."""
    return RealEnclosure.exact(d * d) - witness.multiplier_square_sum() * (d * d + 2)


class BignessData(NamedTuple):
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


class DegreeSummary(NamedTuple):
    degree: int
    candidate_count: int
    extreme_count: int
    minimum: MarginRow
    extreme_rows: tuple[MarginRow, ...]


class NefReport(NamedTuple):
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
    checks: tuple[CheckResult, ...] = ()


def _reference_lookup() -> dict[tuple[int, tuple[int, ...]], Fraction]:
    return {(d, a): m for d, a, m in TABLE_ROWS}


def full_report(eigen: EigenSystem) -> NefReport:
    """Run every nef check against one certified eigensystem.

    Every margin is decided once, as the integer numerator
    d D(lambda) - sum a_i N_i(lambda) over D(lambda) > 0
    (`_margin_numerator`); enclosures are built only for the rows the report
    keeps.
    """
    d_poly, b_poly, *n_polys = eigen.witness_polynomials
    d_value, b_value, *n_values = eigen.witness_values
    checks: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, passed, detail))

    def bounds_of(candidates: list[CandidateCurve]) -> list[tuple[int, int]]:
        return [_margin_numerator(c, d_value, n_values) for c in candidates]

    def row(c: CandidateCurve, bounds: tuple[int, int], exact_zero: bool = False) -> MarginRow:
        return MarginRow(c, eigen.quotient(bounds, d_value), exact_zero)

    def argmin(candidates: list[CandidateCurve], bounds, indices) -> int:
        # the midpoint order of the numerators, with the candidate as tie-break
        return min(indices, key=lambda i: (sum(bounds[i]), candidates[i].mults))

    # the premise of the canonical enumeration below: sorted multiplicities
    # along the weight order minimize the margin (rearrangement inequality)
    record(
        "witness coefficient ordering certified",
        all(
            n_values[a - 1][0] > n_values[b - 1][1]
            for a, b in zip(WEIGHT_ORDER, WEIGHT_ORDER[1:])
        ),
        "strict descending chain",
    )

    # degree <= 1
    line, *others = _degree_one_candidates()
    line_zero = combine((1, -1, -1, -1), (d_poly, *n_polys[:3])) == IntPoly([0])
    line_row = (
        MarginRow(line, RealEnclosure.exact(0), True)
        if line_zero
        else row(line, _margin_numerator(line, d_value, n_values), True)
    )
    record(
        "degree-1 line-class margin is exactly zero",
        line_zero,
        "D - N1 - N2 - N3 = 0 as polynomials, D(lambda) > 0",
    )
    other_bounds = bounds_of(others)
    degree_one = (line_row,) + tuple(row(c, b) for c, b in zip(others, other_bounds))
    record(
        "degree-1 margins positive",
        all(lo > 0 for lo, _ in other_bounds),
        f"{len(others)} classes (45 two-point lines, 10 exceptional)",
    )

    # degree 2
    conics = _degree_two_candidates()
    conic_bounds = bounds_of(conics)
    two_min_index = argmin(conics, conic_bounds, range(len(conics)))
    two_min = row(conics[two_min_index], conic_bounds[two_min_index])
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
        extreme_rows = tuple(row(candidates[i], bounds[i]) for i in extremes)
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
                row(candidates[minimum], bounds[minimum]),
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
        "reference table reproduced",
        matched == len(TABLE_ROWS),
        f"{matched}/{len(TABLE_ROWS)} rows within {float(TABLE_TOLERANCE)}",
    )

    # sum t_i^2 = 1 - 2 B^2 / D^2, on which the cutoff and bigness rest
    square_sum = combine(
        (1,) * len(n_polys) + (-1, 2), [p * p for p in (*n_polys, d_poly, b_poly)]
    ).is_multiple_of(eigen.off_unit_factor)
    record(
        "square-sum identity certified",
        square_sum,
        "sum N_i^2 - D^2 + 2 B^2 = 0 mod s: sum t_i^2 = 1 - 2 beta^2 / (1 - beta)^2",
    )

    # L^2 = 1 - sum t_i^2 = 2 B^2 / D^2 and (1 - beta)^2 L^2 = 2 beta^2 by the
    # square-sum identity; both rest on B(lambda) != 0
    (d_lo, d_hi), (b_lo, b_hi) = d_value, b_value
    if b_lo <= 0 <= b_hi:
        raise PrecisionBudgetError("B(lambda) not certified nonzero; L^2 = 2 B^2 / D^2 undecided")
    b_squared = sorted((b_lo * b_lo, b_hi * b_hi))
    bigness = BignessData(
        eigen.quotient((2 * b_squared[0], 2 * b_squared[1]), (d_lo * d_lo, d_hi * d_hi)),
        2 * eigen.line_component.square(),
    )

    # large degrees: (sum t_i^2)(d^2 + 2) < d^2 iff d^2 B^2 > D^2 - 2 B^2.
    # `_cutoff_degree` proves d^2 gap > bound at the cutoff, and with gap > 0
    # the left side grows with d, so it holds for every d >= cutoff
    gap, bound = b_squared[0], d_hi * d_hi - 2 * b_squared[0]
    cutoff = _cutoff_degree(gap, bound)
    checked_through = cutoff + 20
    record(
        "Cauchy-Schwarz cutoff covers all higher degrees",
        square_sum and cutoff <= 7,
        f"cutoff degree {cutoff}, margins certified through {checked_through}",
    )

    record(
        "witness self-intersection positive (big)",
        square_sum and bigness.witness_self_pairing.is_positive(),
        f"L^2 = 2 B^2 / D^2 = {decimal_string(bigness.witness_self_pairing.midpoint, 6)}... "
        "by the square-sum identity, B(lambda) != 0",
    )
    record(
        "volume lower bound for the dominant class positive",
        square_sum and bigness.volume_lower_bound.is_positive(),
        f"(1-beta)^2 L^2 = 2 beta^2 = {decimal_string(bigness.volume_lower_bound.midpoint, 6)}... "
        "by the square-sum identity, beta > 0",
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
