"""Certified spectral data of the composite map.

Pipeline: exact characteristic polynomial -> certified enclosure of the
dominant eigenvalue -> certified enclosure of the normalized dominant
eigenvector (interval Gaussian elimination over the eigenvalue enclosure) ->
derived quantities: the line component beta and the nef-witness coefficients
t_i.  Also hosts the orientation oracle that selects the composite map among
the notation readings by matching the reference coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CertificationError, PrecisionBudgetError, VerificationError
from .intervals import ClassEnclosure, RealEnclosure
from .lattice import RANK
from .polynomials import (
    IntPoly,
    char_poly,
    dominant_root,
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


def _solve_interval_system(
    matrix: list[list[RealEnclosure]],
    rhs: list[RealEnclosure],
    round_bits: int | None,
) -> list[RealEnclosure]:
    """Gaussian elimination with interval coefficients.

    Pivots are chosen by largest midpoint magnitude; a pivot whose enclosure
    straddles zero means the system is singular at this precision.
    """
    n = len(matrix)
    m = [row[:] for row in matrix]
    b = rhs[:]

    def tidy(x: RealEnclosure) -> RealEnclosure:
        return x.outward(round_bits) if round_bits else x

    for col in range(n):
        pivot_row = None
        pivot_size = Fraction(0)
        for r in range(col, n):
            entry = m[r][col]
            if entry.contains_zero():
                continue
            size = abs(entry.midpoint)
            if pivot_row is None or size > pivot_size:
                pivot_row, pivot_size = r, size
        if pivot_row is None:
            raise PrecisionBudgetError(
                "interval elimination hit a pivot straddling zero; refine the input"
            )
        m[col], m[pivot_row] = m[pivot_row], m[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        for r in range(col + 1, n):
            if m[r][col].lo == 0 == m[r][col].hi:
                continue
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] = tidy(m[r][c] - factor * m[col][c])
            b[r] = tidy(b[r] - factor * b[col])
    solution: list[RealEnclosure] = [RealEnclosure.exact(0)] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        for c in range(row + 1, n):
            acc = acc - m[row][c] * solution[c]
        solution[row] = tidy(acc / m[row][row])
    return solution


def _certify_simple_root(p: IntPoly, lam: RealEnclosure) -> None:
    """Check that lam encloses a simple root of p greater than 1."""
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
        if off_unit(lam.lo) != 0:
            raise CertificationError("exact enclosure does not hit a root")
        return
    if lo_val == 0 or hi_val == 0 or (lo_val > 0) == (hi_val > 0):
        raise CertificationError(
            "enclosure endpoints carry no sign change; not certified to contain the root"
        )


def dominant_eigenvector(
    m: LatticeIsometry,
    lam: RealEnclosure,
    tol: Fraction,
    round_bits: int | None = None,
    polynomial: IntPoly | None = None,
) -> ClassEnclosure:
    """Certified eigenvector enclosure, normalized to H-coefficient exactly 1.

    Solves the 10x10 system left after the normalization with interval
    arithmetic over the eigenvalue enclosure, then checks the full residual
    (T v - lambda v contains 0 componentwise, including the row dropped by
    the normalization) and the requested coefficient widths.  `polynomial`
    is the characteristic polynomial of m when the caller has it already.
    """
    _certify_simple_root(char_poly(m) if polynomial is None else polynomial, lam)
    rows = m.rows
    matrix = [
        [
            RealEnclosure(rows[i][j] - lam.hi, rows[i][j] - lam.lo)
            if i == j
            else RealEnclosure.exact(rows[i][j])
            for j in range(1, RANK)
        ]
        for i in range(1, RANK)
    ]
    rhs = [RealEnclosure.exact(-rows[i][0]) for i in range(1, RANK)]
    tail = _solve_interval_system(matrix, rhs, round_bits)
    coeffs = [RealEnclosure.exact(1)] + tail
    vector = ClassEnclosure(coeffs)

    for i in range(RANK):
        residual = RealEnclosure.exact(0)
        for j in range(RANK):
            residual = residual + rows[i][j] * coeffs[j]
        residual = residual - lam * coeffs[i]
        if not residual.contains_zero():
            raise CertificationError(
                f"eigen-residual row {i} excludes zero: {residual}"
            )
    if any(c.width > tol for c in tail):
        raise PrecisionBudgetError(
            "eigenvector enclosure wider than requested; refine the eigenvalue"
        )
    return vector


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
    m: LatticeIsometry, digits: int, budget: int, root=dominant_root
) -> EigenSystem:
    """`root(p, tol)` isolates the dominant root; callers that build many
    systems may pass a memoized `dominant_root`."""
    p = char_poly(m)
    tol = Fraction(1, 10**digits)
    guard = 24
    last_error: VerificationError | None = None
    for _ in range(budget):
        lam_tol = Fraction(1, 10 ** (digits + guard))
        round_bits = 4 * (digits + guard) + 64
        lam = root(p, lam_tol)
        try:
            vector = dominant_eigenvector(m, lam, tol, round_bits, p)
            component = beta(vector)
            witness = L_coefficients(vector, component)
        except PrecisionBudgetError as err:
            last_error = err
            guard *= 2
            continue
        if witness.max_width() > tol * 10**6:
            guard *= 2
            continue
        return EigenSystem(digits, m, p, lam, vector, component, witness)
    raise PrecisionBudgetError(
        f"eigensystem did not certify within the refinement budget: {last_error}"
    )


@lru_cache(maxsize=8)
def eigensystem(digits: int = 60, budget: int = 10) -> EigenSystem:
    """Certified spectral data of the fixed composite map (cached)."""
    if digits < 1:
        raise ValueError("digits must be positive")
    return _build_eigensystem(composite_T(), digits, budget)


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


def select_orientation(digits: int = 12, budget: int = 6) -> OrientationReport:
    """Evaluate every reading of the composite's notation against the reference.

    Exactly one candidate must reproduce the reference witness coefficients,
    and it must be the matrix `composite_T` returns; anything else is a
    certification failure.  The candidates share few characteristic
    polynomials, so each dominant root is isolated once per call.
    """
    root = lru_cache(maxsize=None)(dominant_root)
    assessments: list[CandidateAssessment] = []
    matching: list[tuple[str, LatticeIsometry]] = []
    for name, matrix in sorted(candidate_composites().items()):
        try:
            system = _build_eigensystem(matrix, digits, budget, root)
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
