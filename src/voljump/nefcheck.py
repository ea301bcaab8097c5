"""Nef certificate for the witness class by exhaustive candidate checking.

The witness L = H - sum t_i E_i is nef iff it pairs nonnegatively with every
curve class C = dH - sum a_i E_i, i.e. d >= sum a_i t_i.  The verification
follows the construction's case split:

* d = 1: only the distinguished line (margin exactly zero) and lines
  through at most two of the points occur as curves; the degree-0
  exceptional classes are checked alongside, all 55 at positive margin.
* d = 2: only conics through five points occur; the five largest t_i decide.
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
every margin is (d D - sum a_i N_i) / D, positive iff its numerator is,
since D(lambda) > 0 is certified.  Since every t_i is certified positive
and the t-ordering is certified, checking multiplicity vectors sorted along
the weight order covers all rearrangements (rearrangement inequality),
which is how the enumeration stays small.  One integer pass decides them
all: the recursion over the sorted patterns (`_canonical_walk`) carries the
enclosure of the margin numerator down the prefix, one subtraction per
level, and each leaf is a plain tuple (multiplicities, numerator bounds,
extreme flag), decided as the walk emits it and kept only if extreme
(`_decided_walk`); degrees 1 and 2 take their numerators straight from the
index subsets (`_subset_leaves`), and two leaves, at the five largest N_k,
decide all 252 conics (`_conics`).  A reference
table row is reproduced only when its whole margin enclosure lies within the
tolerance (`reference.deviations`, the one rule for printed data): a row
straddling its band's edge, with none wholly outside, is undecided (exit 3),
as is an ordering pair whose enclosures overlap, with none proven out of
order.  The report keeps the leaves of the rows it shows, and a row
(candidate object and margin enclosure) is built on its first read, so a run
that prints only verdicts builds none.  The facts beyond the margins are
exact: D - N_1 - N_2 - N_3 is the zero polynomial by the witness's
construction, and the degree-1 line checks it as the premise of the line's
zero margin; the square-sum identity sum t_i^2 = 1 - 2 beta^2 / (1 - beta)^2
is sum N_i^2 - D^2 + 2 B^2 = 0 mod s, decided by the one rule for a fact at
lambda (`spectral.sign_at`: 0 iff s divides it, exit 3 where a nonzero
remainder's enclosure holds 0).  Bigness has no line of its own: given the
identity, L^2 = 2 B^2 / D^2 and (1 - beta)^2 L^2 = 2 beta^2 are squares of
B(lambda) and beta, proved nonzero by `spectral._witness_stage`, and the
identity's line prints both.  The public functions on general witness
enclosures (`margin`, `check_degree_one`, `cauchy_schwarz_cutoff`,
`bigness_certificates`, ...) use interval arithmetic instead.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from functools import cache
from math import comb, isqrt

from .errors import CertificationError, PrecisionBudgetError, Record
from .intervals import ClassEnclosure, RealEnclosure, decimal_string
from .lattice import fraction_type
from .polynomials import IntPoly, combine
from .reference import TABLE_MILLI, TABLE_TOLERANCE_MILLI, WEIGHT_ORDER, deviations
from .spectral import EigenSystem, sign_at


def _feasible(degree: int, total: int, square_total: int) -> bool:
    """Adjunction and canonical-degree constraints on a curve class of the
    given degree, multiplicity sum and multiplicity square sum."""
    return square_total <= degree * degree + 2 and total <= 3 * degree


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
        return cls(0, _indicator((i - 1,), -1))

    @classmethod
    def line(cls) -> "CandidateCurve":
        """The distinguished line H - E1 - E2 - E3."""
        return cls(1, (1, 1, 1, 0, 0, 0, 0, 0, 0, 0))


class MarginRow(Record):
    """A candidate with its certified margin d - sum a_i t_i."""

    candidate: CandidateCurve
    margin: RealEnclosure
    exact_zero: bool = False


class CheckResult(Record):
    name: str
    passed: bool
    detail: str = ""


class Certificates(list):
    """A run's certificate lines in order.  `record` adds one; a line whose
    premise (an earlier line, by name) failed fails and names that premise."""

    def record(self, name: str, passed: bool, detail: str = "", *premises: str) -> None:
        lines = {c.name: c.passed for c in self}
        if name in lines:
            raise ValueError(f"certificate {name!r} recorded twice")
        if unknown := [premise for premise in premises if premise not in lines]:
            raise ValueError(f"premise {unknown[0]!r} of {name!r} names no earlier line")
        if failed := [premise for premise in premises if not lines[premise]]:
            passed, detail = False, f"premise failed: {failed[0]}"
        self.append(CheckResult(name, passed, detail))


ORDERING = "witness coefficient ordering certified"
SQUARE_SUM = "square-sum identity certified"


def margin(c: CandidateCurve, witness: ClassEnclosure) -> RealEnclosure:
    """Certified enclosure of d - sum a_i t_i (the pairing with the witness)."""
    total = RealEnclosure.exact(c.degree)
    for a, coeff in zip(c.mults, witness.coeffs[1:]):
        if a:
            total = total + a * coeff  # coeff = -t_i
    return total


def margin_at_midpoints(c: CandidateCurve, witness: ClassEnclosure) -> Fraction:
    """Margin against the exact rational midpoints of the witness enclosure."""
    total = fraction_type()(c.degree)
    for a, coeff in zip(c.mults, witness.coeffs[1:]):
        total += a * coeff.midpoint
    return total


def _indicator(indices, value: int = 1) -> tuple[int, ...]:
    """Multiplicities with `value` at the given 0-based indices, 0 elsewhere."""
    mults = [0] * 10
    for k in indices:
        mults[k] = value
    return tuple(mults)


def _canonical_walk(
    d: int,
    emit: Callable[[tuple[tuple[int, ...], int, int, bool]], object],
    d_value: tuple[int, int] = (0, 0),
    n_values: Sequence[tuple[int, int]] = ((0, 0),) * 10,
) -> None:
    """Every feasible multiplicity vector of degree d that is nonincreasing
    along the weight order, passed to `emit` as leaves (mults, lo, hi,
    extreme) in descending order of the sorted pattern; the walk keeps none.

    [lo, hi] encloses d D(lambda) - sum a_i N_i(lambda), the margin times
    D(lambda), from the enclosures of D(lambda) and N_i(lambda) over one
    denominator: each a_i >= 0 lowers lo by a_i N_i.hi and hi by a_i N_i.lo
    as the prefix grows.  `extreme` says that bumping a_10 (the
    minimum-weight coordinate, order not re-imposed) leaves the feasible
    set.  Without values the bounds are 0.
    """
    sq_budget, sum_budget = d * d + 2, 3 * d
    steps = [(index - 1, *n_values[index - 1]) for index in WEIGHT_ORDER]
    mults = [0] * 10

    # rec takes itself as an argument: a closure cell holding it would make a
    # reference cycle that keeps `emit` alive until the cyclic collector runs
    def rec(rec, pos: int, prev: int, total: int, square_total: int, lo: int, hi: int) -> None:
        if pos < 10:
            i, n_lo, n_hi = steps[pos]
            for v in range(min(prev, sum_budget - total, isqrt(sq_budget - square_total)), 0, -1):
                mults[i] = v
                rec(rec, pos + 1, v, total + v, square_total + v * v, lo - v * n_hi, hi - v * n_lo)
            mults[i] = 0
        # the multiplicities from pos on are zero
        extreme = not _feasible(d, total + 1, square_total + 2 * mults[9] + 1)
        emit((tuple(mults), lo, hi, extreme))

    rec(rec, 0, sum_budget, 0, 0, d * d_value[0], d * d_value[1])


def _subset_leaves(
    degree: int,
    subsets,
    emit: Callable[[tuple], None],
    d_value: tuple[int, int],
    n_values: Sequence[tuple[int, int]],
) -> None:
    """Pass `emit` the leaf (mults, lo, hi, False) of each class
    degree H - sum_{k in s} E_k, one per subset s of 0-based indices, bounds
    as in `_canonical_walk` and none extreme: one pass over s sets each
    multiplicity and lowers both bounds."""
    d_lo, d_hi = degree * d_value[0], degree * d_value[1]
    for s in subsets:
        mults, lo, hi = [0] * 10, d_lo, d_hi
        for k in s:
            mults[k] = 1
            n_lo, n_hi = n_values[k]
            lo -= n_hi
            hi -= n_lo
        emit((tuple(mults), lo, hi, False))


def enumerate_feasible(d: int) -> list[CandidateCurve]:
    """All feasible multiplicity vectors for degree d in 3..6, nonincreasing
    along the weight order (one representative per rearrangement class)."""
    if not 3 <= d <= 6:
        raise ValueError(f"enumeration degree must be in 3..6, got {d}")
    leaves: list = []
    _canonical_walk(d, leaves.append)
    return [CandidateCurve(d, leaf[0]) for leaf in leaves]


def extreme_candidates(d: int) -> list[CandidateCurve]:
    """Canonical feasible vectors made infeasible by bumping a_10."""
    if not 3 <= d <= 6:
        raise ValueError(f"enumeration degree must be in 3..6, got {d}")
    leaves: list = []
    _canonical_walk(d, leaves.append)
    return [CandidateCurve(d, leaf[0]) for leaf in leaves if leaf[3]]


def _degree_one_candidates() -> list[CandidateCurve]:
    """The distinguished line first, then the 45 two-point lines (index
    pairs in `combinations` order) and the ten exceptional classes."""
    out = [CandidateCurve.line()]
    out.extend(CandidateCurve(1, _indicator(pair)) for pair in itertools.combinations(range(10), 2))
    out.extend(CandidateCurve.exceptional(i) for i in range(1, 11))
    return out


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
    conics = (CandidateCurve(2, _indicator(s)) for s in itertools.combinations(range(10), 5))
    return [MarginRow(c, margin(c, witness)) for c in conics]


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


class BignessData(Record):
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


class DegreeSummary(Record):
    """One degree of the enumeration: its counts and the leaves of the rows
    the report keeps, whose rows `rows` builds on first read."""

    degree: int
    candidate_count: int
    minimum_leaf: tuple
    extreme_leaves: tuple
    rows: Callable[..., MarginRow]  # (degree, leaf, exact_zero=False) -> row, built once

    @property
    def extreme_count(self) -> int:
        return len(self.extreme_leaves)

    @property
    def minimum(self) -> MarginRow:
        return self.rows(self.degree, self.minimum_leaf)

    @property
    def extreme_rows(self) -> tuple[MarginRow, ...]:
        return tuple(self.rows(self.degree, leaf) for leaf in self.extreme_leaves)


class NefReport(Record):
    """Aggregated evidence that the witness class is nef and big.

    The certificates (`checks`) and counts are decided on the margin
    numerators; the row fields (`degree_one`, `degree_two_minimum`,
    `zero_witnesses`, `extra_extreme_rows` and those of `degrees`) build
    their `MarginRow`s on first read, so a run that prints only verdicts
    builds none.
    """

    degree_one_leaves: tuple  # (1, leaf, exact_zero) of the line, (degree, leaf) of the other 55
    degree_two_count: int
    degree_two_minimum_leaf: tuple
    degrees: tuple[DegreeSummary, ...]
    cutoff: int
    bigness_grid: tuple  # L^2 and (1 - beta)^2 L^2 as (lo, hi, den)
    reference_rows_total: int
    reference_rows_matched: int
    extra_leaves: tuple  # (degree, leaf) of extreme rows outside the reference table
    rows: Callable[..., MarginRow]  # as in DegreeSummary
    checks: tuple[CheckResult, ...] = ()

    bigness = property(lambda self: BignessData(*(RealEnclosure.over(*x) for x in self.bigness_grid)))

    @property
    def degree_one(self) -> tuple[MarginRow, ...]:
        return tuple(self.rows(*x) for x in self.degree_one_leaves)

    @property
    def degree_two_minimum(self) -> MarginRow:
        return self.rows(2, self.degree_two_minimum_leaf)

    @property
    def zero_witnesses(self) -> tuple[MarginRow, ...]:
        return tuple(self.rows(*x) for x in self.degree_one_leaves[:1] if x[2])

    @property
    def extra_extreme_rows(self) -> tuple[MarginRow, ...]:
        return tuple(self.rows(*x) for x in self.extra_leaves)


def _decided_walk(produce: Callable[[Callable[[tuple], None]], None]):
    """The leaves (mults, lo, hi, extreme) that `produce(emit)` emits, each
    decided as emitted and kept only if extreme: (leaf count, the leaf of least
    midpoint numerator, ties broken by the multiplicities, the extreme leaves,
    whether every lo > 0, the least lo of a non-extreme leaf or None)."""
    extremes: list = []
    count, minimum, key, positive, least_other = 0, None, None, True, None

    def take(leaf):
        nonlocal count, minimum, key, positive, least_other
        count += 1
        leaf_key = (leaf[1] + leaf[2], leaf[0])
        if key is None or leaf_key < key:
            minimum, key = leaf, leaf_key
        positive = positive and leaf[1] > 0
        if leaf[3]:
            extremes.append(leaf)
        elif least_other is None or leaf[1] < least_other:
            least_other = leaf[1]

    produce(take)
    return count, minimum, tuple(extremes), positive, least_other


def _conics(d_value: tuple[int, int], n_values: Sequence[tuple[int, int]]) -> tuple:
    """`_decided_walk`'s count, minimum and "every lo > 0" of the 252 conics, from two leaves: lo
    falls with sum_S N_k.hi, lo + hi with sum_S (N_k.lo + N_k.hi); ties go to the least mults."""
    weights = ([hi for _, hi in n_values], [lo + hi for lo, hi in n_values])
    top = [sorted(range(10), key=lambda k: (w[k], k))[5:] for w in weights]
    leaves: list = []
    _subset_leaves(2, top, leaves.append, d_value, n_values)
    return comb(10, 5), leaves[1], leaves[0][1] > 0


def full_report(eigen: EigenSystem) -> NefReport:
    """Run every nef check against one certified eigensystem.

    Every margin is decided once, as the integer numerator
    d D(lambda) - sum a_i N_i(lambda) over D(lambda) > 0, and the reference
    table on the whole grid enclosures of the quotients; the report keeps the
    leaves of the rows it shows and builds a row only when it is read.
    """
    d_poly, b_poly, *n_polys = eigen.witness_polynomials
    d_value, b_value, *n_values = eigen.witness_values
    checks = Certificates()
    record = checks.record

    @cache
    def rows(degree: int, leaf: tuple, exact_zero: bool = False) -> MarginRow:
        """The row of a leaf (mults, lo, hi, ...): the margin numerator over
        D(lambda) > 0 put on the eigensystem's grid."""
        margin = eigen.quotient(leaf[1:3], d_value)
        return MarginRow(CandidateCurve(degree, leaf[0]), margin, exact_zero)

    # the premise of the canonical enumeration below: sorted multiplicities along the weight
    # order minimize the margin (rearrangement inequality); N_a.hi <= N_b.lo proves t_a <= t_b
    chain = list(zip(WEIGHT_ORDER, WEIGHT_ORDER[1:]))
    broken = next(((a, b) for a, b in chain if n_values[a - 1][1] <= n_values[b - 1][0]), None)
    overlap = next(((a, b) for a, b in chain if n_values[a - 1][0] <= n_values[b - 1][1]), None)
    if broken is None and overlap is not None:
        raise PrecisionBudgetError("t_{} > t_{} not certified: enclosures overlap".format(*overlap))
    ordering = overlap is None
    detail = "strict descending chain" if ordering else "t_{} > t_{} not certified".format(*broken)
    record(ORDERING, ordering, detail)

    # degree <= 1; D - N1 - N2 - N3 = 0 makes the line's margin numerator exactly 0
    line_zero = combine((1, -1, -1, -1), (d_poly, *n_polys[:3])) == IntPoly([0])
    leaves: list = []
    subsets = [(0, 1, 2), *itertools.combinations(range(10), 2)]
    _subset_leaves(1, subsets, leaves.append, d_value, n_values)
    line_leaf, *lines = leaves
    # E_i = 0 H - (-1) E_i: margin t_i = N_i / D
    exceptionals = [(_indicator((i,), -1), *v) for i, v in enumerate(n_values)]
    degree_one_leaves = (
        (1, (line_leaf[0], 0, 0) if line_zero else line_leaf, line_zero),
        *((1, leaf) for leaf in lines),
        *((0, leaf) for leaf in exceptionals),
    )
    positive = all(leaf[1] > 0 for leaf in lines) and all(lo > 0 for lo, _ in n_values)
    record(
        "degree-1 margins nonnegative",
        line_zero and positive,
        "D - N1 - N2 - N3 != 0 as polynomials" if not line_zero
        else "a two-point line or exceptional class not certified positive" if not positive
        else "line class exactly 0 (D - N1 - N2 - N3 = 0), "
        "45 two-point lines and 10 exceptional classes positive",
    )

    # degree 2: conics through five distinct points, decided by two of them
    degree_two_count, degree_two_minimum, positive = _conics(d_value, n_values)
    record("degree-2 margins positive", positive, f"{degree_two_count} conic classes")

    # degrees 3..6
    summaries: list[DegreeSummary] = []
    table = {(d, a): m for d, a, m in TABLE_MILLI}
    enclosures, references, names, extras = [], [], [], []
    enumeration_positive = True
    undecided = []  # degrees whose least margin is not certified on the extreme set
    for d in range(3, 7):
        count, minimum, extremes, positive, least_other = _decided_walk(
            lambda emit: _canonical_walk(d, emit, d_value, n_values)
        )
        enumeration_positive = enumeration_positive and positive
        # on whole enclosures: no other leaf's lo lies below the least extreme hi
        if least_other is not None and (
            not extremes or least_other < min(leaf[2] for leaf in extremes)
        ):
            undecided.append(d)
        for leaf in extremes:
            reference = table.get((d, leaf[0]))
            if reference is None:
                extras.append((d, leaf))
            else:
                enclosures.append(eigen.grid_quotient(leaf[1:3], d_value))
                references.append(reference)
                names.append(f"table row d = {d}, a = {leaf[0]}")
        summaries.append(DegreeSummary(d, count, minimum, extremes, rows))
    record(
        "degrees 3..6 full enumeration margins positive",
        enumeration_positive,
        f"{sum(s.candidate_count for s in summaries)} canonical candidates",
        ORDERING,
    )
    record(
        "degrees 3..6 minimum attained on the extreme set",
        not undecided,
        "full-set and extreme-set minimizers coincide"
        if not undecided
        else f"extreme-set minimum not certified least at degree {undecided[0]}",
        ORDERING,
    )
    bits = eigen.grid_bits
    distances, tolerance, _ = deviations(enclosures, references, TABLE_TOLERANCE_MILLI, bits, names)
    matched = sum(x <= tolerance for x in distances)
    record(
        "reference table reproduced",
        matched == len(TABLE_MILLI),
        f"{matched}/{len(TABLE_MILLI)} rows within {TABLE_TOLERANCE_MILLI / 1000}",
    )

    # sum t_i^2 = 1 - 2 B^2 / D^2, on which the cutoff rests; with it L^2 = 2 B^2 / D^2 and
    # (1 - beta)^2 L^2 = 2 beta^2, squares of values `spectral._witness_stage` proved nonzero
    (d_lo, d_hi), (b_lo, b_hi) = d_value, b_value
    l_squared = eigen.grid_quotient((2 * b_lo**2, 2 * b_hi**2), (d_lo**2, d_hi**2))
    beta_lo, beta_hi = eigen.line_numerators
    volume = (2 * beta_lo**2, 2 * beta_hi**2, 1 << 2 * bits)
    squares = combine((1,) * len(n_polys) + (-1, 2), [p * p for p in (*n_polys, d_poly, b_poly)])
    undecided = "sum N_i^2 - D^2 + 2 B^2 mod s not sign-certified"
    square_sum = not sign_at(squares, eigen.off_unit_factor, eigen.scaled_column[2], undecided)
    record(
        SQUARE_SUM,
        square_sum,
        "sum N_i^2 - D^2 + 2 B^2 = 0 mod s: "
        f"L^2 = 2 B^2 / D^2 = {decimal_string(l_squared[0] + l_squared[1], 2 << bits, 6)}..., "
        f"(1 - beta)^2 L^2 = 2 beta^2 = {decimal_string(volume[0] + volume[1], 2 * volume[2], 6)}..."
        if square_sum
        else "sum N_i^2 - D^2 + 2 B^2 != 0 mod s",
    )

    # large degrees: (sum t_i^2)(d^2 + 2) < d^2 iff d^2 B^2 > D^2 - 2 B^2.
    # `_cutoff_degree` proves d^2 gap > bound at the cutoff, and with gap > 0
    # the left side grows with d, so it holds for every d >= cutoff
    gap, bound = b_lo**2, d_hi * d_hi - 2 * b_lo**2
    cutoff = _cutoff_degree(gap, bound)
    record(
        "Cauchy-Schwarz cutoff covers all higher degrees",
        cutoff <= 7,
        f"cutoff degree {cutoff}",
        SQUARE_SUM,
    )

    return NefReport(
        degree_one_leaves=degree_one_leaves,
        degree_two_count=degree_two_count,
        degree_two_minimum_leaf=degree_two_minimum,
        degrees=tuple(summaries),
        cutoff=cutoff,
        bigness_grid=((*l_squared, 1 << bits), volume),
        reference_rows_total=len(TABLE_MILLI),
        reference_rows_matched=matched,
        extra_leaves=tuple(extras),
        rows=rows,
        checks=tuple(checks),
    )
