"""Certified lattice computations behind a volume-jumping divisor class.

The package reconstructs, with exact arithmetic and certified enclosures,
the numerical data of a divisor class on the blow-up of the projective
plane at ten points whose volume jumps on a dense set of configurations:
the composite lattice isometry, its dominant eigenpair, the nef certificate
for the derived witness class by finite enumeration, and the distinctness
of the orbit of the line class.
"""

from .errors import CertificationError, PrecisionBudgetError, VerificationError
from .intervals import ClassEnclosure, RealEnclosure
from .lattice import (
    DivisorClass,
    canonical_class,
    exceptional,
    gram_matrix,
    hyperplane,
    line_through,
    pair,
    standard_line,
)
from .nefcheck import (
    BignessData,
    CandidateCurve,
    MarginRow,
    NefReport,
    bigness_certificates,
    cauchy_schwarz_cutoff,
    check_degree_one,
    check_degree_two,
    enumerate_feasible,
    extreme_candidates,
    full_report,
    margin,
)
from .orbit import (
    DistinctnessResult,
    OrbitRecord,
    growth_profile,
    iterate,
    orbit,
    verify_distinct,
)
from .polynomials import (
    IntPoly,
    UnitCircleCount,
    char_poly,
    count_roots_outside_unit_circle,
    cyclotomic_factors,
    dominant_root,
)
from .spectral import (
    EigenSystem,
    eigensystem,
    select_orientation,
)
from .transform import (
    LatticeIsometry,
    apply,
    composite_T,
    cremona_isometry,
    exceptional_shift,
    permutation_isometry,
    verify_isometry,
)

__version__ = "0.1.0"
