"""Certified spectral data of the composite map.

Pipeline: one integer pass (`faddeev_leverrier`) gives the characteristic
polynomial p and the column a(x) = adj(xI - T) e_0 of integer polynomials
-> the factorization p = (x - 1)^k s with s(1) != 0: gcd(s, s') = 1 proves
s squarefree, and the dominant eigenvalue lambda is isolated on s itself, in
(1, top), which is the one proof of lambda > 1 (`_dominant_spectrum`; no real
root above 1 stops the run) -> lambda refined to the precision on its isolating
bracket (`refine_bracket`: integer Newton steps only guess the cell, two
exact signs certify it) -> the normalized dominant eigenvector
a(lambda) / a_0(lambda) -> the first row of the eigen-relation
(xI - T) a = p e_0 that fails as polynomials, None if none does, all in
`_spectral_core` -> the nef witness as integer
polynomials of the column: with B = -(a_0 + a_1 + a_2 + a_3),
D = 2 a_0 - B and N_i = -2 a_i - B l_i (l_i = 1 on the line indices 1..3),
the line component is beta = B(lambda) / 2 a_0(lambda) and the witness
coefficients are t_i = N_i(lambda) / D(lambda).  Every polynomial is
enclosed at lambda once, as integer numerators over one power of 2 sized to
lambda's enclosure, on outward-rounded powers of its endpoints
(`_endpoint_powers`, `_enclose`), and each quotient goes onto a dyadic grid
by integer floor and ceiling division (`_quotient_on_grid`); none of them is
a `Fraction`.  The N_i off the line indices are the multiples -2 a_i,
enclosed as (-2 hi, -2 lo) of a_i by `_spectral_core`.  One function builds
the witness (`_witness_stage`, the one path of `eigensystem` and of every
oracle reading): it builds D and B, decides the signs of D(lambda) and
B(lambda), which put beta in (0, 1) (the one proof of r_1 + r_2 + r_3 > 1,
and of L^2 > 0 and 2 beta^2 > 0 given the square-sum identity), then builds
N_1..N_3 and puts beta and the t_i on the grid, whose size it returns for
the system to keep (`EigenSystem.grid_bits`).  One rule decides every fact at
lambda (`sign_at`): the sign of an integer polynomial p at the simple root
lambda of s is that of an enclosure clear of 0 (the caller's own, where a
division needs that one, else of p's remainder mod s), and 0 when s | p, or
when lambda is a root of the factor g = gcd(s, remainder) because s / g is
enclosed clear of 0 (s reducible); anything else raises
`PrecisionBudgetError`; a_0, D and B above, and the square-sum identity
(whose polynomial is -4 sum g_i a_i^2, so it decides v.v = 0) and l.v in
`nefcheck` and `report`, are decided by it, and no other module tests a
polynomial mod s.  `EigenSystem.to_json` is the one builder of the `eigen`
JSON section, for `report` and `eigen --format json`.  Also hosts
the factor data of p (`CharpolyFacts`, which reads k = deg p - deg s off the
core's factorization; its unit-circle count is k roots at 1 plus the count of
s; its `to_json` likewise serves `report` and `charpoly`) and the
orientation oracle over the 14 readings of the composite's notation, which
reads the run's core for its matrix's class, runs `_spectral_core` once for
the other and the witness stage once per reading but t's, which is the run's
own witness (`select_orientation`), judged by `reference.witness_matches`
(the one rule for printed data, and its one caller; an undecided reading
stops the oracle, exit 3).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import gcd
from operator import itemgetter

from .errors import CertificationError, PrecisionBudgetError, Record
from .intervals import ClassEnclosure, RealEnclosure, enclosure_json
from .lattice import RANK, canonical_class
from .polynomials import (
    IntPoly,
    UnitCircleCount,
    combine,
    dominant_bracket,
    faddeev_leverrier,
    poly_gcd,
    refine_bracket,
    split_cyclotomic_factors,
    squarefree_circle_count,
    strip_rational_root,
)
from .reference import witness_matches
from .transform import LatticeIsometry, candidate_readings, composite_T

#: Exceptional indices carried by the distinguished line class H - E1 - E2 - E3.
_LINE_INDICES = (1, 2, 3)

#: Decimal digits by which the eigenvalue enclosure is tighter than the
#: requested coefficient width; the divisions by a_0(lambda) and D(lambda)
#: cost far fewer.
GUARD_DIGITS = 24


def _dominant_spectrum(p: IntPoly) -> tuple[IntPoly, tuple[int, int, int]]:
    """The factor s of p = (x - 1)^k s, s(1) != 0, and the isolating bracket
    of its largest root lambda > 1: s is squarefree by gcd(s, s') = 1, and
    lambda is isolated on s itself, so it is a simple root of p."""
    _, s = strip_rational_root(p, 1)
    if s.degree < 1:
        raise CertificationError("polynomial has no factor beyond powers of (x - 1)")
    if poly_gcd(s, s.derivative()).degree != 0:
        raise CertificationError(
            "repeated roots beyond (x - 1): the dominant eigenvalue is not certified simple"
        )
    return s, dominant_bracket(s)


def _endpoint_powers(lam: tuple[int, int, int], degree: int) -> tuple[list[int], list[int]]:
    """With lambda in [A, B] / D: numerators over 2^S, S = 2 bitlen(D) + 64, of
    outward-rounded bounds low_k <= lambda^k 2^S <= high_k, k <= deg, from
    low_0 = high_0 = 2^S by low_(k+1) = floor(low_k A / D) and
    high_(k+1) = ceil(high_k B / D); what the rounding loses lies far below
    lambda's width 1 / D and the quotients' grid (`_grid_bits`).

    Each term c_k lambda^k lies between c_k low_k and c_k high_k over 2^S; the
    lower bound takes low_k for c_k > 0 and high_k for c_k < 0 (`_enclose`).
    Both steps round outward only for A > 0: `dominant_bracket` isolates lambda
    on [1, top] and s(1) != 0, so A >= D and lambda > 1 hold for every
    refinement of it.
    """
    a, b, den = lam
    if not a > 0:
        raise CertificationError("eigenvector evaluation needs a positive eigenvalue enclosure")
    low = [1 << 2 * den.bit_length() + 64]
    high = low[:]
    for _ in range(degree):
        low.append(low[-1] * a // den)
        high.append(-(-high[-1] * b // den))
    return low, high


def _enclose(p: IntPoly, powers: tuple[list[int], list[int]]) -> tuple[int, int]:
    """Numerators [lo, hi] of p(lambda) over the 2^S of `powers`
    (`_endpoint_powers`), for p of degree at most theirs."""
    lo_sum = hi_sum = 0
    for c, x, y in zip(p.coeffs, *powers):
        if c > 0:
            lo_sum += c * x
            hi_sum += c * y
        elif c < 0:
            lo_sum += c * y
            hi_sum += c * x
    return lo_sum, hi_sum


def sign_at(p: IntPoly, s: IntPoly, powers: tuple, undecided: str, value: tuple | None = None) -> int:
    """The one rule for a fact at lambda, a simple root of the monic s: the sign
    (-1, 0 or 1) of c p(lambda), for the caller's enclosure `value` of c p(lambda),
    c != 0 (c = 1 without one).  The sign of `value` if it is clear of 0 (then no
    remainder is taken).  Else 0 if s | p; without `value`, the sign of p's
    remainder mod s enclosed on `powers` if that is clear of 0; and 0 if
    g = gcd(s, remainder) is nonconstant and s / g is enclosed clear of 0 (so
    lambda is a root of g, which divides the remainder).  Anything else raises
    `PrecisionBudgetError(undecided)`.  The remainder and s / g have degree at
    most that of `powers`, for deg s <= deg `powers` + 1."""
    if value is None or value[0] <= 0 <= value[1]:
        if (rest := p.scaled_remainder(s)).degree < 0:
            return 0
        if value is not None or (value := _enclose(rest, powers))[0] <= 0 <= value[1]:
            # lambda is a root of exactly one of g and s / g
            g = poly_gcd(s, rest)
            if g.degree < 1 or (other := _enclose(s.divide_exact(g), powers))[0] <= 0 <= other[1]:
                raise PrecisionBudgetError(undecided)
            return 0
    return 1 if value[0] > 0 else -1


def _quotient_on_grid(
    v: tuple[int, int], w: tuple[int, int], bits: int
) -> tuple[int, int]:
    """Numerators over 2^bits of the outward-rounded enclosure of v / w, for
    intervals v and w of numerators over one common denominator, 0 not in w."""
    (v_lo, v_hi), (w_lo, w_hi) = v, w
    if w_hi < 0:  # v / w = (-v) / (-w)
        v_lo, v_hi, w_lo, w_hi = -v_hi, -v_lo, -w_hi, -w_lo
    lo = (v_lo << bits) // (w_hi if v_lo >= 0 else w_lo)
    hi = -((-v_hi << bits) // (w_lo if v_hi >= 0 else w_hi))
    return lo, hi


def _grid_bits(lam: tuple[int, int, int]) -> int:
    """The quotients are only as tight as lambda's enclosure [A, B] / D; a grid
    2^64 times finer than lambda's own (B / D in lowest terms) keeps them small."""
    _, b, den = lam
    return (den // gcd(b, den)).bit_length() + 64


def _grid_class(quotients: tuple[tuple[int, int], ...], bits: int) -> ClassEnclosure:
    """The class H + sum q_i E_i for numerators (lo_i, hi_i) over 2^bits."""
    scale = 1 << bits
    return ClassEnclosure(
        [RealEnclosure.exact(1)] + [RealEnclosure.over(lo, hi, scale) for lo, hi in quotients]
    )


def _wider_than(quotients: Sequence[tuple[int, int]], bits: int, tol: int, slack: int) -> bool:
    """Whether an enclosure with numerators over 2^bits is wider than slack / tol."""
    widest = max(hi - lo for lo, hi in quotients)
    return widest * tol > slack << bits


def _eigen_relation(m: LatticeIsometry, column: Sequence[IntPoly], p: IntPoly) -> int | None:
    """The first row of (xI - m) a = p e_0 that fails, None if none does, for
    the adjugate column a of xI - m, which (xI - m) adj(xI - m) = p I gives:
    as polynomials with p = (x - 1)^k s, more than every row vanishing mod s,
    and without a division."""
    width = 1 + max(len(a.coeffs) for a in column)
    padded = [list(a.coeffs) + [0] * (width - len(a.coeffs)) for a in column]
    expected = list(p.coeffs) + [0] * (width - len(p.coeffs))
    for i, row in enumerate(m.rows):
        residual = [0] + padded[i][:-1]  # x a_i - sum_j m_ij a_j
        for j, c in enumerate(row):
            if c:
                residual = [r - c * y for r, y in zip(residual, padded[j])]
        if any(residual) if i else residual != expected:
            return i
    return None


def line_pairing_identity_certified(r: ClassEnclosure) -> bool:
    """Certify that the nef witness of a dominant-class enclosure r pairs to
    exactly zero with the line class.

    With s = r1 + r2 + r3 and beta = (s - 1)/2, the witness coefficients give
    t1 + t2 + t3 = (s - 3*beta) / (1 - beta) = (3 - s)/(3 - s) = 1 identically
    whenever s != 3.  Certifying 3 outside the enclosure of s therefore
    certifies the exact-zero margin of the line class symbolically.  On the
    verification run the same fact holds by the witness's construction
    (D - N_1 - N_2 - N_3 is the zero polynomial, `_witness_stage`), and the
    line "degree-1 margins nonnegative" checks it as its premise.
    """
    multipliers = r.multipliers()
    s = multipliers[0] + multipliers[1] + multipliers[2]
    return not s.contains(3)


class EigenSystem(Record):
    """Certified spectral data of one transform at one precision: fields 1..7 are its
    `_spectral_core`; enclosures are integer numerators, built into enclosures when read."""

    transform: LatticeIsometry
    polynomial: IntPoly
    adjugate_column: tuple[IntPoly, ...]  # a = adj(xI - T) e_0, eigenvector a(lambda)
    off_unit_factor: IntPoly  # s, with lambda a certified simple root
    eigenvalue: tuple[int, int, int]  # lambda in [lo, hi] / den
    eigenvector: tuple[tuple[int, int], ...]  # a_i(lambda) / a_0(lambda) = -r_i, i = 1..10
    scaled_column: tuple  # -2 a_j, their enclosures, the endpoint powers (`_spectral_core`)
    relation_row: int | None  # first failing row of (xI - T) a = p e_0, None if it holds
    witness_polynomials: tuple[IntPoly, ...]  # (D, B, N_1..N_10), D(lambda) > 0
    witness_values: tuple[tuple[int, int], ...]  # their enclosures, over the powers' 2^S
    line_numerators: tuple[int, int]  # beta, over 2^grid_bits
    witness_numerators: tuple[tuple[int, int], ...]  # the E_i coefficients -t_i, likewise
    grid_bits: int  # the dyadic grid of the quotients (`_grid_bits`)

    dominant_value = property(lambda self: RealEnclosure.over(*self.eigenvalue))
    dominant_class = property(lambda self: _grid_class(self.eigenvector, self.grid_bits))
    line_component = property(
        lambda self: RealEnclosure.over(*self.line_numerators, 1 << self.grid_bits)
    )
    nef_witness = property(lambda self: _grid_class(self.witness_numerators, self.grid_bits))

    def r(self) -> tuple[RealEnclosure, ...]:
        """Multipliers r_i of the dominant class H - sum r_i E_i."""
        return self.dominant_class.multipliers()

    def t(self) -> tuple[RealEnclosure, ...]:
        """Multipliers t_i of the nef witness H - sum t_i E_i."""
        return self.nef_witness.multipliers()

    def grid_quotient(self, v: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
        """Numerators over 2^grid_bits of v / w, for numerator enclosures over
        one common denominator (such as the witness values), 0 not in w."""
        return _quotient_on_grid(v, w, self.grid_bits)

    def quotient(self, v: tuple[int, int], w: tuple[int, int]) -> RealEnclosure:
        """`grid_quotient` as an enclosure."""
        return RealEnclosure.over(*self.grid_quotient(v, w), 1 << self.grid_bits)

    def to_json(self, digits: int) -> dict:
        """The report's `eigen` section, which `eigen --format json` prints: each
        enclosure by `enclosure_json` with a `digits`-place midpoint."""
        v = self.dominant_class
        return {
            "lambda": enclosure_json(self.dominant_value, digits),
            "dominant_class": [enclosure_json(c, digits) for c in v.coeffs],
            "r": [enclosure_json(e, digits) for e in v.multipliers()],
            "beta": enclosure_json(self.line_component, digits),
            "t": [enclosure_json(e, digits) for e in self.t()],
            "pair_self": enclosure_json(v.self_pair(), digits),
            "pair_canonical": enclosure_json(v.pair(canonical_class()), digits),
        }


def _spectral_core(m: LatticeIsometry, tol: int) -> tuple:
    """`EigenSystem`'s fields 1..7 for m, from the integer pass on: p, a, s,
    lambda, the eigenvector at most 1 / tol wide, the scaled data
    `_witness_stage` reads (the multiples -2 a_j, their enclosures (-2 hi, -2 lo)
    from a_j's, the endpoint powers) and the failing row of the eigen-relation
    (`_eigen_relation`).  A conjugate Q m Q^T permutes a, the vector and the
    multiples.  `sign_at` decides a_0(lambda) != 0 on its enclosure, the one
    each a_i(lambda) / a_0(lambda) divides by to go onto the grid by floor and
    ceiling division, its width compared there.
    """
    p, column = faddeev_leverrier(m)
    off_unit, bracket = _dominant_spectrum(p)
    lam = refine_bracket(off_unit, bracket, (1, tol * 10**GUARD_DIGITS))
    powers = _endpoint_powers(lam, max(a.degree for a in column))
    values = [_enclose(a, powers) for a in column]
    undecided = "a_0(lambda) not certified nonzero; refine the eigenvalue"
    if not sign_at(column[0], off_unit, powers, undecided, values[0]):
        raise CertificationError("a_0(lambda) = 0: a_0 = 0 at lambda")
    bits = _grid_bits(lam)
    vector = tuple(_quotient_on_grid(v, values[0], bits) for v in values[1:])
    if _wider_than(vector, bits, tol, 1):
        raise PrecisionBudgetError(
            "eigenvector enclosure wider than requested; refine the eigenvalue"
        )
    multiples = [combine((-2,), (a,)) for a in column]
    scaled = multiples, [(-2 * hi, -2 * lo) for lo, hi in values], powers
    return p, column, off_unit, lam, vector, scaled, _eigen_relation(m, column, p)


def _witness_stage(
    column: Sequence[IntPoly], scaled: tuple, s: IntPoly, lam: tuple[int, int, int], tol: int
) -> tuple:
    """The witness of the column a, from its scaled data (`_spectral_core`) in
    the same order: the polynomials (D, B, N_1, ..., N_10), signed so that
    D(lambda) > 0 is certified, their enclosures at lambda over one common
    denominator, numerators over 2^bits of beta and of the nef witness's E_i
    coefficients -t_i, and bits (`_grid_bits`).

    With r_i = -a_i / a_0 the dominant class H - sum r_i E_i and
    beta = (r_1 + r_2 + r_3 - 1) / 2, the witness coefficients
    t_i = (r_i - beta l_i) / (1 - beta) are N_i / D: B = -(a_0 + ... + a_3),
    D = 2 a_0 - B and N_i = -2 a_i - B l_i, and beta = B / 2 a_0 = B / (D + B).
    By construction D - N_1 - N_2 - N_3 is the zero polynomial, and
    0 < beta < 1 holds iff B and D share a sign.  `sign_at` decides both signs
    before N_1..N_3 are built and enclosed (N_4..N_10 are multiples): D or B
    zero at lambda, or of opposite signs, is a genuine failure.  So this stage is
    the one producer of three facts no certificate line restates:
    0 < beta < 1; r_1 + r_2 + r_3 - 1 = B / a_0 = 2 beta > 0, as
    a_0 = (D + B) / 2; and B(lambda) != 0 and beta > 0, which make
    L^2 = 2 B^2 / D^2 and (1 - beta)^2 L^2 = 2 beta^2 positive.
    """
    multiples, multiple_values, powers = scaled
    bits = _grid_bits(lam)
    b = combine((-1, -1, -1, -1), column[:4])
    heads = [combine((2, -1), (column[0], b)), b]
    values = [_enclose(p, powers) for p in heads]
    undecided = "D(lambda) = 2 (1 - beta) a_0(lambda) not certified nonzero; refine the eigenvalue"
    sign = sign_at(heads[0], s, powers, undecided, values[0])
    undecided = "line component not certified inside (0, 1): B(lambda) not sign-certified"
    if (shared := sign and sign * sign_at(b, s, powers, undecided, values[1])) <= 0:
        state = "B(lambda) < 0 < D(lambda)" if shared else "B(lambda) D(lambda) = 0"
        raise CertificationError(f"line component outside (0, 1): {state}")
    component = _quotient_on_grid(values[1], map(sum, zip(*values)), bits)  # beta = B / (D + B)
    heads += [combine((-2, -1), (column[i], b)) for i in _LINE_INDICES]
    polys = (*heads, *multiples[4:])
    values = (*values, *(_enclose(p, powers) for p in heads[2:]), *multiple_values[4:])
    if sign < 0:
        polys = tuple(combine((-1,), (p,)) for p in polys)
        values = tuple((-hi, -lo) for lo, hi in values)
    # t_i = -N_i / D: the negated quotient
    quotients = (_quotient_on_grid(n, values[0], bits) for n in values[2:])
    witness = tuple((-hi, -lo) for lo, hi in quotients)
    if _wider_than(witness, bits, tol, 10**6):
        raise PrecisionBudgetError("nef witness enclosure wider than requested")
    return polys, values, component, witness, bits


@lru_cache(maxsize=8)
def eigensystem(digits: int = 60) -> EigenSystem:
    """Certified spectral data of the fixed composite map (cached): a run's one `composite_T`."""
    if digits < 1:
        raise ValueError("digits must be positive")
    m, tol = composite_T(), 10**digits
    core = _spectral_core(m, tol)
    return EigenSystem(m, *core, *_witness_stage(core[1], core[5], core[2], core[3], tol))


class CharpolyFacts(Record):
    """Factor data of the characteristic polynomial, computed once per run."""

    polynomial: IntPoly
    unit_root_multiplicity: int
    off_unit_factor: IntPoly
    cyclotomic: list[tuple[int, int]]
    circle: UnitCircleCount

    @classmethod
    def of(cls, eigen: EigenSystem) -> "CharpolyFacts":
        """Facts of the system's polynomial p from the core's factorization.

        `_dominant_spectrum` found s by exact division, p = (x - 1)^k s with
        s(1) != 0, and proved s squarefree, so k = deg p - deg s, the roots
        of p are k roots at 1 and the roots of s, counted by
        `squarefree_circle_count`, and the cyclotomic scan runs on s, after
        the factor (x - 1)^k.
        """
        p, off_unit = eigen.polynomial, eigen.off_unit_factor
        unit_mult = p.degree - off_unit.degree
        outside, inside, on_circle = squarefree_circle_count(off_unit)
        circle = UnitCircleCount(outside, inside, on_circle + unit_mult)
        return cls(p, unit_mult, off_unit, split_cyclotomic_factors(unit_mult, off_unit), circle)

    def to_json(self) -> dict:
        return {
            "coefficients_ascending": list(self.polynomial.coeffs),
            "unit_root_multiplicity": self.unit_root_multiplicity,
            "off_unit_factor_ascending": list(self.off_unit_factor.coeffs),
            "cyclotomic_factors": [list(f) for f in self.cyclotomic],
            "roots": {
                "outside_unit_circle": self.circle.outside,
                "inside_unit_circle": self.circle.inside,
                "on_unit_circle": self.circle.on_circle,
            },
        }


# -- orientation oracle ----------------------------------------------------------


class CandidateAssessment(Record):
    name: str
    matches: bool
    detail: str


class OrientationReport(Record):
    selected: str  # "" when the oracle does not single out t
    assessments: tuple[CandidateAssessment, ...]
    detail: str  # the oracle line's detail


def select_orientation(eigen: EigenSystem) -> OrientationReport:
    """Evaluate every reading of the composite's notation against the reference.

    Exactly one candidate must reproduce the reference witness coefficients,
    and it must be the run's matrix t = `eigen.transform`; anything else is a
    certification failure, reported with `selected` empty and every
    assessment kept.  The 14 readings form 2 conjugacy classes: with
    S_k = exceptional_shift(k), a @ b = b^-1 (b @ a) b, cremona(8, 9, 10) =
    S_7 cremona(1, 2, 3) S_7^-1, and the reversal E_i -> E_(11-i) swaps the
    Cremona slot sets and turns S_k into S_-k.  From these, each reading M'
    has a representative M and a slot permutation q (`candidate_readings`).
    The class of M = t reads the run's spectral core (`eigen`, at the run's
    precision), the other runs `_spectral_core` once at 12 digits, each with
    the multiples -2 a_j and their values; M'[q(i)][q(j)] == M[i][j]
    certifies a'[q(i)] = a[i], so the witness of M' permutes them.  The
    reading M' = t has a' = a whatever q is, so it takes the run's witness,
    whose width bound is the run's.  Per other reading only B' and D' are
    built and enclosed, then N'_1..N'_3 if B'(lambda) > 0 is certified; all
    read slots 0..3, and widths are asked at 12 digits.  A reading whose data
    fail to certify does not match, and a class core that fails to certify, or
    whose eigen-relation fails, fails each reading of its class with the same
    error; an undecided one raises `PrecisionBudgetError` naming it.
    """
    tol, t = 10**12, eigen.transform
    readings = candidate_readings()
    classes: dict[str, tuple] = {}
    assessments: list[CandidateAssessment] = []
    for name, matrix, rep, base, q in readings:
        permuted = itemgetter(*q)  # row i of the result is M'[q(i)][q(j)] over j
        if (q[0], *sorted(q[1:])) != tuple(range(RANK)) or (  # q fixes slot 0
            tuple(map(permuted, permuted(matrix.rows))) != base.rows
        ):
            raise CertificationError(f"conjugator of {name} does not carry {rep} to it")
        try:
            if rep not in classes:
                try:  # the class of t reads the run's core
                    classes[rep] = eigen[1:8] if base == t else _spectral_core(base, tol)
                except CertificationError as err:
                    classes[rep] = err  # kept: the class's later readings fail with it
            core = classes[rep]
            if isinstance(core, CertificationError):
                raise core
            _, column, s, lam, _, (multiples, values, powers), row = core
            if row is not None:
                raise CertificationError(f"eigen-relation row {row} of (xI - T) a = p e_0 fails")
            if matrix == t:  # a' = adj(xI - t) e_0 = a whatever q is: the run's own witness
                witness, bits = eigen.witness_numerators, eigen.grid_bits
            else:  # the column of M' is a'[q(i)] = a[i], and so are its multiples
                order = sorted(range(RANK), key=q.__getitem__)
                column, *scaled = ([xs[i] for i in order] for xs in (column, multiples, values))
                *_, witness, bits = _witness_stage(column, (*scaled, powers), s, lam, tol)
            assessments.append(CandidateAssessment(name, *witness_matches(witness, bits)))
        except CertificationError as err:
            assessments.append(CandidateAssessment(name, False, f"no certified data: {err}"))
        except PrecisionBudgetError as err:
            raise PrecisionBudgetError(f"orientation reading {name}: {err}") from err
    matching = [(r, a) for r, a in zip(readings, assessments) if a.matches]
    if len(matching) != 1:
        failure = f"orientation oracle must single out one candidate, found {len(matching)}"
        return OrientationReport("", tuple(assessments), failure)
    [(reading, assessment)] = matching
    if reading.matrix != t:
        failure = f"orientation oracle selected {reading.name}, which differs from the fixed composite"
        return OrientationReport("", tuple(assessments), failure)
    return OrientationReport(reading.name, tuple(assessments), f"{reading.name}: {assessment.detail}")
