"""Certified spectral data of the composite map.

Pipeline: one Faddeev-LeVerrier pass gives the characteristic polynomial p
and the column a(x) = adj(xI - T) e_0 of integer polynomials -> certified
enclosure of the dominant eigenvalue lambda, a simple root of the off-unit
factor s of p -> the eigen-relation (xI - T) a = 0 checked exactly mod s ->
the normalized dominant eigenvector a(lambda) / a_0(lambda), evaluated once
on interval powers of lambda -> derived quantities: the line component beta
and the nef-witness coefficients t_i.  Exact identities mod s (such as the
zero pairings of the eigenvector) are decided on the column itself.  Also
hosts the orientation oracle that selects the composite map among the
notation readings by matching the reference coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import CertificationError, PrecisionBudgetError, VerificationError
from .intervals import ClassEnclosure, RealEnclosure
from .lattice import RANK
from .polynomials import (
    IntPoly,
    combine,
    dominant_root,
    faddeev_leverrier,
    poly_gcd,
    strip_rational_root,
)
from .transform import (
    LatticeIsometry,
    candidate_composites,
    composite_T,
)

#: Exceptional indices carried by the distinguished line class H - E1 - E2 - E3.
_LINE_INDICES = (1, 2, 3)

#: Decimal digits by which the eigenvalue enclosure is tighter than the
#: requested coefficient width; the divisions by a_0(lambda) and 1 - beta
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


def _dominant_spectrum(p: IntPoly, tol: Fraction) -> tuple[RealEnclosure, IntPoly]:
    """The certified dominant root of p (width <= tol) and the factor s it is
    a simple root of."""
    lam = dominant_root(p, tol)
    return lam, _certify_simple_root(p, lam)


def _eigenvector(
    m: LatticeIsometry,
    column: Sequence[IntPoly],
    off_unit: IntPoly,
    lam: RealEnclosure,
    tol: Fraction,
) -> ClassEnclosure:
    """a(lambda) / a_0(lambda) for the adjugate column a of xI - m.

    The eigen-relation x a_i - sum_j m_ij a_j = 0 mod s is checked exactly
    per row; lambda must be a certified root of s, so a(lambda) is an
    eigenvector and a_0(lambda) != 0 is certified by its enclosure.
    """
    for i, row in enumerate(m.rows):
        residual = combine(
            (1,) + tuple(-c for c in row), (IntPoly((0,) + column[i].coeffs), *column)
        )
        if not residual.is_multiple_of(off_unit):
            raise CertificationError(f"eigen-relation row {i} does not vanish mod s")
    powers = [RealEnclosure.exact(1)]
    for _ in range(max(a.degree for a in column)):
        powers.append(powers[-1] * lam)
    values = [
        sum((c * x for c, x in zip(a.coeffs, powers) if c), RealEnclosure.exact(0))
        for a in column
    ]
    if values[0].contains_zero():
        raise PrecisionBudgetError("a_0(lambda) not certified nonzero; refine the eigenvalue")
    # the quotients are only as tight as lambda's enclosure; a grid 2^64
    # times finer than lambda's own keeps their denominators small
    bits = lam.hi.denominator.bit_length() + 64
    tail = [(v / values[0]).outward(bits) for v in values[1:]]
    if any(c.width > tol for c in tail):
        raise PrecisionBudgetError(
            "eigenvector enclosure wider than requested; refine the eigenvalue"
        )
    return ClassEnclosure([RealEnclosure.exact(1)] + tail)


def dominant_eigenvector(
    m: LatticeIsometry, lam: RealEnclosure, tol: Fraction
) -> ClassEnclosure:
    """Certified eigenvector enclosure, normalized to H-coefficient exactly 1.

    lam must enclose a simple root greater than 1 of the characteristic
    polynomial of m; the coefficients come from the adjugate column.
    """
    p, column = faddeev_leverrier(m)
    return _eigenvector(m, column, _certify_simple_root(p, lam), lam, tol)


def beta(r: ClassEnclosure) -> RealEnclosure:
    """Line component of the dominant class: (r1 + r2 + r3 - 1) / 2.

    Certifies 0 < beta < 1; an enclosure that straddles either bound asks
    for refined input, one that lies outside is a genuine failure.
    """
    multipliers = r.multipliers()
    s = multipliers[0] + multipliers[1] + multipliers[2]
    value = (s - 1) / Fraction(2)
    if value.hi <= 0 or value.lo >= 1:
        raise CertificationError(f"line component {value} outside (0, 1)")
    if not value.strictly_inside(0, 1):
        raise PrecisionBudgetError(
            f"line component {value} not certified inside (0, 1); refine inputs"
        )
    return value


def line_pairing_identity_certified(r: ClassEnclosure) -> bool:
    """Certify that the nef witness pairs to exactly zero with the line class.

    With s = r1 + r2 + r3 and beta = (s - 1)/2, the witness coefficients give
    t1 + t2 + t3 = (s - 3*beta) / (1 - beta) = (3 - s)/(3 - s) = 1 identically
    whenever s != 3.  Certifying 3 outside the enclosure of s therefore
    certifies the exact-zero margin of the line class symbolically, which no
    interval evaluation could do.
    """
    multipliers = r.multipliers()
    s = multipliers[0] + multipliers[1] + multipliers[2]
    return not s.contains(3)


def L_coefficients(r: ClassEnclosure, b: RealEnclosure) -> ClassEnclosure:
    """Nef-witness coefficients t_i = (r_i - beta * l_i) / (1 - beta).

    l_i is 1 on the three line indices and 0 elsewhere; the H-coefficient of
    the result is exactly 1.
    """
    if not (b.lo > 0 and b.hi < 1):
        raise CertificationError(f"line component {b} not certified inside (0, 1)")
    one_minus = 1 - b
    coeffs = [RealEnclosure.exact(1)]
    for i in range(1, RANK):
        numerator = r.coeffs[i] + (b if i in _LINE_INDICES else 0)
        coeffs.append(numerator / one_minus)
    return ClassEnclosure(coeffs)


@dataclass(frozen=True)
class EigenSystem:
    """Bundle of certified spectral data for one transform at one precision."""

    digits: int
    transform: LatticeIsometry
    polynomial: IntPoly
    adjugate_column: tuple[IntPoly, ...]  # a = adj(xI - T) e_0, eigenvector a(lambda)
    off_unit_factor: IntPoly  # s, with lambda a certified simple root
    dominant_value: RealEnclosure
    dominant_class: ClassEnclosure
    line_component: RealEnclosure
    nef_witness: ClassEnclosure

    def r(self) -> tuple[RealEnclosure, ...]:
        """Multipliers r_i of the dominant class H - sum r_i E_i."""
        return self.dominant_class.multipliers()

    def t(self) -> tuple[RealEnclosure, ...]:
        """Multipliers t_i of the nef witness H - sum t_i E_i."""
        return self.nef_witness.multipliers()


def _build_eigensystem(
    m: LatticeIsometry, digits: int, spectrum=_dominant_spectrum
) -> EigenSystem:
    """`spectrum(p, tol)` is `_dominant_spectrum`; callers that build many
    systems may pass a memoized one."""
    p, column = faddeev_leverrier(m)
    tol = Fraction(1, 10**digits)
    lam, off_unit = spectrum(p, tol / 10**GUARD_DIGITS)
    vector = _eigenvector(m, column, off_unit, lam, tol)
    component = beta(vector)
    witness = L_coefficients(vector, component)
    if witness.max_width() > tol * 10**6:
        raise PrecisionBudgetError("nef witness enclosure wider than requested")
    return EigenSystem(digits, m, p, column, off_unit, lam, vector, component, witness)


@lru_cache(maxsize=8)
def eigensystem(digits: int = 60) -> EigenSystem:
    """Certified spectral data of the fixed composite map (cached)."""
    if digits < 1:
        raise ValueError("digits must be positive")
    return _build_eigensystem(composite_T(), digits)


# -- orientation oracle ----------------------------------------------------------


@dataclass(frozen=True)
class CandidateAssessment:
    name: str
    matches: bool
    detail: str


@dataclass(frozen=True)
class OrientationReport:
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
