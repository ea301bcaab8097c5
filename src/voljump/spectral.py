"""Certified spectral data of the composite map.

Pipeline: one integer pass (`faddeev_leverrier`) gives the characteristic
polynomial p and the column a(x) = adj(xI - T) e_0 of integer polynomials
-> certified enclosure of the dominant eigenvalue lambda, a simple root of
the off-unit factor s of p -> the eigen-relation (xI - T) a = p e_0 as
polynomials, with p = (x - 1)^k s -> the normalized dominant eigenvector
a(lambda) / a_0(lambda) -> the nef witness as integer polynomials of the
column: with B = -(a_0 + a_1 + a_2 + a_3), D = 2 a_0 - B and
N_i = -2 a_i - B l_i (l_i = 1 on the line indices 1..3), the line component
is beta = B(lambda) / 2 a_0(lambda) and the witness coefficients are
t_i = N_i(lambda) / D(lambda).  Every polynomial is enclosed at lambda once,
as integer numerators over a power of the denominator of lambda's endpoints
(`_column_values`), and each quotient goes onto a dyadic grid by integer
floor and ceiling division (`_quotient_on_grid`).  Exact identities mod s
(the zero pairings of the eigenvector, the square-sum identity of the
witness) are decided on the polynomials themselves.  Also hosts the factor
data of p (`CharpolyFacts`) and the orientation oracle that selects the
composite map among the notation readings by matching the reference
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple, Sequence

from .errors import CertificationError, PrecisionBudgetError, VerificationError
from .intervals import ClassEnclosure, RealEnclosure
from .lattice import RANK
from .polynomials import (
    IntPoly,
    UnitCircleCount,
    combine,
    count_roots_outside_unit_circle,
    cyclotomic_factors,
    dominant_root,
    faddeev_leverrier,
    poly_gcd,
    strip_rational_root,
)
from .transform import LatticeIsometry, candidate_composites, composite_T

#: Exceptional indices carried by the distinguished line class H - E1 - E2 - E3.
_LINE_INDICES = (1, 2, 3)

#: Decimal digits by which the eigenvalue enclosure is tighter than the
#: requested coefficient width; the divisions by a_0(lambda) and D(lambda)
#: cost far fewer.
GUARD_DIGITS = 24


def _certify_simple_root(p: IntPoly, lam: RealEnclosure) -> IntPoly:
    """Check that lam encloses a simple root of p greater than 1; return the
    factor s of p beyond powers of (x - 1), of which it is a root."""
    if not lam.lo > 1:
        raise CertificationError(
            "eigenvalue enclosure must lie strictly above 1 (dominant, not unit root)"
        )
    _, off_unit = strip_rational_root(p, 1)
    if off_unit.degree < 1:
        raise CertificationError("polynomial has no factor beyond powers of (x - 1)")
    if poly_gcd(off_unit, off_unit.derivative()).degree != 0:
        raise CertificationError(
            "repeated roots beyond (x - 1): the dominant eigenvalue is not certified simple"
        )
    lo_val, hi_val = off_unit(lam.lo), off_unit(lam.hi)
    if lam.lo == lam.hi:
        if lo_val != 0:
            raise CertificationError("exact enclosure does not hit a root")
    elif lo_val == 0 or hi_val == 0 or (lo_val > 0) == (hi_val > 0):
        raise CertificationError(
            "enclosure endpoints carry no sign change; not certified to contain the root"
        )
    return off_unit


def _times_unit_roots(s: IntPoly, degree: int) -> IntPoly:
    """(x - 1)^k s of the given degree: p rebuilt from its off-unit factor."""
    for _ in range(degree - s.degree):
        s = s * IntPoly([-1, 1])
    return s


def _dominant_spectrum(p: IntPoly, tol: Fraction) -> tuple[RealEnclosure, IntPoly]:
    """The certified dominant root of p (width <= tol) and the factor s it is
    a simple root of."""
    lam = dominant_root(p, tol)
    return lam, _certify_simple_root(p, lam)


def _column_values(column: Sequence[IntPoly], lam: RealEnclosure) -> list[tuple[int, int]]:
    """Enclosures [lo_i, hi_i] / D^deg of a_i(lambda) for each column
    polynomial, as integer numerators over one power of the common
    denominator D of lambda's endpoints.

    With lambda.lo = A/D and lambda.hi = B/D, each term c_k lambda^k lies
    between c_k A^k/D^k and c_k B^k/D^k; the lower bound takes A^k for c_k > 0
    and B^k for c_k < 0.  That needs lambda.lo > 0, which the callers
    certify (lambda.lo > 1) in `_certify_simple_root`.
    """
    if not lam.lo > 0:
        raise CertificationError("eigenvector evaluation needs a positive eigenvalue enclosure")
    den = lcm(lam.lo.denominator, lam.hi.denominator)
    a = lam.lo.numerator * (den // lam.lo.denominator)
    b = lam.hi.numerator * (den // lam.hi.denominator)
    degree = max(p.degree for p in column)
    low = [a**k * den ** (degree - k) for k in range(degree + 1)]
    high = [b**k * den ** (degree - k) for k in range(degree + 1)]
    values = []
    for p in column:
        lo_sum = hi_sum = 0
        for c, x, y in zip(p.coeffs, low, high):
            if c > 0:
                lo_sum += c * x
                hi_sum += c * y
            elif c < 0:
                lo_sum += c * y
                hi_sum += c * x
        values.append((lo_sum, hi_sum))
    return values


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


def _grid_bits(lam: RealEnclosure) -> int:
    """The quotients are only as tight as lambda's enclosure; a grid 2^64
    times finer than lambda's own keeps their denominators small."""
    return lam.hi.denominator.bit_length() + 64


def _grid_enclosure(v: tuple[int, int], w: tuple[int, int], bits: int) -> RealEnclosure:
    lo, hi = _quotient_on_grid(v, w, bits)
    return RealEnclosure(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def _grid_class(quotients: Sequence[tuple[int, int]], bits: int) -> ClassEnclosure:
    """The class H + sum q_i E_i for numerators (lo_i, hi_i) over 2^bits."""
    scale = 1 << bits
    return ClassEnclosure(
        [RealEnclosure.exact(1)]
        + [RealEnclosure(Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in quotients]
    )


def _wider_than(quotients: Sequence[tuple[int, int]], bits: int, tol: Fraction) -> bool:
    """Whether an enclosure with numerators over 2^bits is wider than tol."""
    widest = max(hi - lo for lo, hi in quotients)
    return widest * tol.denominator > tol.numerator << bits


def _eigenvector_quotients(
    m: LatticeIsometry, column: Sequence[IntPoly], off_unit: IntPoly, lam: RealEnclosure, tol: Fraction
) -> list[tuple[int, int]]:
    """Numerators over 2^bits (`_grid_bits`) of a_i(lambda) / a_0(lambda),
    i >= 1, for the adjugate column a of xI - m.

    Since (xI - m) adj(xI - m) = p I, the column satisfies (xI - m) a = p e_0,
    checked as polynomials with p = (x - 1)^k s (`_certify_simple_root`
    strips s from p): more than every row vanishing mod s, and without a
    division.  lambda must be a certified root of s, so a(lambda) is an
    eigenvector, and a_0(lambda) != 0 is certified by its enclosure.  Each
    a_i(lambda) is enclosed once in integers (`_column_values`) and each
    quotient goes straight onto the grid by floor and ceiling division; its
    width is compared there too.
    """
    p = _times_unit_roots(off_unit, len(m.rows))
    width = 1 + max(len(a.coeffs) for a in column)
    padded = [list(a.coeffs) + [0] * (width - len(a.coeffs)) for a in column]
    expected = list(p.coeffs) + [0] * (width - len(p.coeffs))
    for i, row in enumerate(m.rows):
        residual = [0] + padded[i][:-1]  # x a_i - sum_j m_ij a_j
        for j, c in enumerate(row):
            if c:
                residual = [r - c * y for r, y in zip(residual, padded[j])]
        if any(residual) if i else residual != expected:
            raise CertificationError(f"eigen-relation row {i} of (xI - T) a = p e_0 fails")
    values = _column_values(column, lam)
    w_lo, w_hi = values[0]
    if w_lo <= 0 <= w_hi:
        raise PrecisionBudgetError("a_0(lambda) not certified nonzero; refine the eigenvalue")
    bits = _grid_bits(lam)
    quotients = [_quotient_on_grid(v, values[0], bits) for v in values[1:]]
    if _wider_than(quotients, bits, tol):
        raise PrecisionBudgetError(
            "eigenvector enclosure wider than requested; refine the eigenvalue"
        )
    return quotients


def _eigenvector(
    m: LatticeIsometry, column: Sequence[IntPoly], off_unit: IntPoly, lam: RealEnclosure, tol: Fraction
) -> ClassEnclosure:
    """a(lambda) / a_0(lambda), by `_eigenvector_quotients`."""
    return _grid_class(_eigenvector_quotients(m, column, off_unit, lam, tol), _grid_bits(lam))


def _witness_polynomials(column: Sequence[IntPoly]) -> tuple[IntPoly, ...]:
    """(D, B, N_1, ..., N_10) of the nef witness, from the adjugate column a.

    With r_i = -a_i / a_0 the dominant class H - sum r_i E_i and
    beta = (r_1 + r_2 + r_3 - 1) / 2, the witness coefficients
    t_i = (r_i - beta l_i) / (1 - beta) are N_i / D, and beta = B / 2 a_0.
    By construction D - N_1 - N_2 - N_3 is the zero polynomial.
    """
    b = combine((-1, -1, -1, -1), column[:4])
    d = combine((2, -1), (column[0], b))
    return (d, b) + tuple(
        combine((-2, -1 if i in _LINE_INDICES else 0), (column[i], b))
        for i in range(1, RANK)
    )


def _witness(
    column: Sequence[IntPoly], lam: RealEnclosure
) -> tuple[tuple[IntPoly, ...], tuple[tuple[int, int], ...]]:
    """The witness polynomials, signed so that D(lambda) > 0 is certified, and
    their enclosures at lambda over one common denominator."""
    polys = _witness_polynomials(column)
    values = tuple(_column_values(polys, lam))
    d_lo, d_hi = values[0]
    if d_lo <= 0 <= d_hi:
        raise PrecisionBudgetError(
            "D(lambda) = 2 (1 - beta) a_0(lambda) not certified nonzero; refine the eigenvalue"
        )
    if d_hi < 0:
        polys = tuple(combine((-1,), (p,)) for p in polys)
        values = tuple((-hi, -lo) for lo, hi in values)
    return polys, values


def beta(d: tuple[int, int], b: tuple[int, int], bits: int) -> RealEnclosure:
    """Line component B(lambda) / 2 a_0(lambda) = B / (D + B) on the 2^-bits
    grid, from enclosures of D(lambda) > 0 and B(lambda) over one denominator.

    With D > 0, 0 < beta < 1 holds iff B > 0: an enclosure of B that
    straddles 0 asks for refined input, one below 0 is a genuine failure.
    """
    if b[1] < 0:
        raise CertificationError("line component outside (0, 1): B(lambda) < 0 < D(lambda)")
    if b[0] <= 0:
        raise PrecisionBudgetError(
            "line component not certified inside (0, 1): B(lambda) not sign-certified"
        )
    return _grid_enclosure(b, (d[0] + b[0], d[1] + b[1]), bits)


def line_pairing_identity_certified(r: ClassEnclosure) -> bool:
    """Certify that the nef witness of a dominant-class enclosure r pairs to
    exactly zero with the line class.

    With s = r1 + r2 + r3 and beta = (s - 1)/2, the witness coefficients give
    t1 + t2 + t3 = (s - 3*beta) / (1 - beta) = (3 - s)/(3 - s) = 1 identically
    whenever s != 3.  Certifying 3 outside the enclosure of s therefore
    certifies the exact-zero margin of the line class symbolically.  The
    verification run decides the same fact as the polynomial identity
    D - N_1 - N_2 - N_3 = 0.
    """
    multipliers = r.multipliers()
    s = multipliers[0] + multipliers[1] + multipliers[2]
    return not s.contains(3)


class EigenSystem(NamedTuple):
    """Bundle of certified spectral data for one transform at one precision."""

    digits: int
    transform: LatticeIsometry
    polynomial: IntPoly
    adjugate_column: tuple[IntPoly, ...]  # a = adj(xI - T) e_0, eigenvector a(lambda)
    off_unit_factor: IntPoly  # s, with lambda a certified simple root
    dominant_value: RealEnclosure
    dominant_class: ClassEnclosure
    witness_polynomials: tuple[IntPoly, ...]  # (D, B, N_1..N_10), D(lambda) > 0
    witness_values: tuple[tuple[int, int], ...]  # their enclosures, one denominator
    line_component: RealEnclosure
    nef_witness: ClassEnclosure

    def r(self) -> tuple[RealEnclosure, ...]:
        """Multipliers r_i of the dominant class H - sum r_i E_i."""
        return self.dominant_class.multipliers()

    def t(self) -> tuple[RealEnclosure, ...]:
        """Multipliers t_i of the nef witness H - sum t_i E_i."""
        return self.nef_witness.multipliers()

    def quotient(self, v: tuple[int, int], w: tuple[int, int]) -> RealEnclosure:
        """v / w on this system's dyadic grid, for numerator enclosures over
        one common denominator (such as the witness values), 0 not in w."""
        return _grid_enclosure(v, w, _grid_bits(self.dominant_value))


def _build_eigensystem(
    m: LatticeIsometry, digits: int, spectrum=_dominant_spectrum
) -> EigenSystem:
    """`spectrum(p, tol)` is `_dominant_spectrum`; callers that build many
    systems may pass a memoized one."""
    p, column = faddeev_leverrier(m)
    tol = Fraction(1, 10**digits)
    lam, off_unit = spectrum(p, tol / 10**GUARD_DIGITS)
    vector = _eigenvector_quotients(m, column, off_unit, lam, tol)
    polys, values = _witness(column, lam)
    bits = _grid_bits(lam)
    component = beta(values[0], values[1], bits)
    # t_i = -N_i / D: the negated quotient
    witness = [(-hi, -lo) for lo, hi in (_quotient_on_grid(n, values[0], bits) for n in values[2:])]
    if _wider_than(witness, bits, tol * 10**6):
        raise PrecisionBudgetError("nef witness enclosure wider than requested")
    vector, witness = _grid_class(vector, bits), _grid_class(witness, bits)
    return EigenSystem(digits, m, p, column, off_unit, lam, vector, polys, values, component, witness)


@lru_cache(maxsize=8)
def eigensystem(digits: int = 60) -> EigenSystem:
    """Certified spectral data of the fixed composite map (cached)."""
    if digits < 1:
        raise ValueError("digits must be positive")
    return _build_eigensystem(composite_T(), digits)


class CharpolyFacts(NamedTuple):
    """Factor data of the characteristic polynomial, computed once per run."""

    polynomial: IntPoly
    unit_root_multiplicity: int
    off_unit_factor: IntPoly
    cyclotomic: list[tuple[int, int]]
    circle: UnitCircleCount

    @classmethod
    def of(cls, eigen: EigenSystem) -> "CharpolyFacts":
        """Facts of the system's polynomial p; the factor (x - 1)^k comes from
        the certified off-unit factor s, checked: (x - 1)^k s = p, s(1) != 0."""
        p, off_unit = eigen.polynomial, eigen.off_unit_factor
        unit_mult = p.degree - off_unit.degree
        if _times_unit_roots(off_unit, p.degree) != p or off_unit(1) == 0:
            raise CertificationError("polynomial is not (x - 1)^k times its off-unit factor")
        return cls(
            p, unit_mult, off_unit, cyclotomic_factors(p), count_roots_outside_unit_circle(p)
        )

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


class CandidateAssessment(NamedTuple):
    name: str
    matches: bool
    detail: str


class OrientationReport(NamedTuple):
    selected: str
    assessments: tuple[CandidateAssessment, ...]

    def matching_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.assessments if a.matches)


def _matches_reference(witness: ClassEnclosure) -> tuple[bool, str]:
    from .reference import WITNESS_COEFFS, WITNESS_TOLERANCE

    worst = Fraction(0)
    for enc, ref in zip(witness.multipliers(), WITNESS_COEFFS):
        deviation = max(abs(enc.lo - ref), abs(enc.hi - ref))
        worst = max(worst, deviation)
        if not (enc.lo >= ref - WITNESS_TOLERANCE and enc.hi <= ref + WITNESS_TOLERANCE):
            return False, f"coefficient off reference by up to {float(deviation):.4f}"
    return True, f"all coefficients within {float(worst):.2e} of reference"


def select_orientation(digits: int = 12) -> OrientationReport:
    """Evaluate every reading of the composite's notation against the reference.

    Exactly one candidate must reproduce the reference witness coefficients,
    and it must be the matrix `composite_T` returns; anything else is a
    certification failure.  The candidates share few characteristic
    polynomials, so each dominant root is isolated and certified simple once
    per call.
    """
    spectrum = lru_cache(maxsize=None)(_dominant_spectrum)
    assessments: list[CandidateAssessment] = []
    matching: list[tuple[str, LatticeIsometry]] = []
    for name, matrix in sorted(candidate_composites().items()):
        try:
            system = _build_eigensystem(matrix, digits, spectrum)
        except VerificationError as err:
            assessments.append(CandidateAssessment(name, False, f"no certified data: {err}"))
            continue
        ok, detail = _matches_reference(system.nef_witness)
        assessments.append(CandidateAssessment(name, ok, detail))
        if ok:
            matching.append((name, matrix))
    if len(matching) != 1:
        raise CertificationError(
            f"orientation oracle must single out one candidate, found {len(matching)}"
        )
    name, matrix = matching[0]
    if matrix != composite_T():
        raise CertificationError(
            f"orientation oracle selected {name}, which differs from the fixed composite"
        )
    return OrientationReport(name, tuple(assessments))
