"""Full verification run and the deterministic JSON artifact.

Every certificate the package can produce is evaluated here in a fixed
order; the JSON report contains exact rational interval endpoints (decimal
fields are display-only midpoints) so that two runs with the same
configuration emit byte-identical artifacts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .config import ConfigError, RunConfig
from .errors import CertificationError
from .intervals import ClassEnclosure, decimal_string, enclosure_json
from .lattice import GRAM_DIAGONAL, canonical_class, standard_line
from .nefcheck import CheckResult, MarginRow, NefReport, full_report
from .orbit import distinctness, growth_ratios, increase_start, orbit
from .polynomials import combine
from .reference import WITNESS_COEFFS, WITNESS_TOLERANCE
from .spectral import CharpolyFacts, EigenSystem, OrientationReport, eigensystem, select_orientation
from .transform import apply, composite_T, verify_isometry

SCHEMA_VERSION = "1"


class OrbitEvidence(NamedTuple):
    horizon: int
    distinct: bool
    collision: tuple[int, int] | None
    all_self_intersection_minus_two: bool
    all_canonical_degree_zero: bool
    ratio_start: int
    ratios_tested: int
    ratios_converged: bool
    max_norm_increasing_from: int | None
    records: tuple


def _orbit_evidence(eigen: EigenSystem, horizon: int) -> OrbitEvidence:
    """Every orbit fact from one walk of the line class."""
    records = tuple(orbit(standard_line(), horizon))
    distinct = distinctness(records)
    self_ok = all(r.self_intersection == -2 for r in records)
    k_ok = all(r.canonical_degree == 0 for r in records)
    ratios = growth_ratios([(r.n, r.divisor.h) for r in records])
    start = 30 if horizon >= 33 else max(3, horizon - 3)
    lam = eigen.dominant_value
    low = lam.lo * Fraction(99, 100)
    high = lam.hi * Fraction(101, 100)
    tested = [ratio for n, ratio in ratios if n >= start]
    converged = bool(tested) and all(low <= ratio <= high for ratio in tested)
    return OrbitEvidence(
        horizon=horizon,
        distinct=distinct.distinct,
        collision=distinct.collision,
        all_self_intersection_minus_two=self_ok,
        all_canonical_degree_zero=k_ok,
        ratio_start=start,
        ratios_tested=len(tested),
        ratios_converged=converged,
        max_norm_increasing_from=increase_start(records),
        records=records,
    )


class VerificationRun(NamedTuple):
    config: RunConfig
    eigen: EigenSystem
    nef: NefReport
    orbit: OrbitEvidence
    certificates: tuple[CheckResult, ...]
    orientation_selected: str
    orientation_candidates: tuple
    charpoly: CharpolyFacts

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.certificates)


def run_verification(config: RunConfig | None = None) -> VerificationRun:
    """Evaluate every certificate in a fixed order and collect the evidence."""
    cfg = config or RunConfig()
    cfg.validate()
    if cfg.orbit_horizon < 3:
        raise ConfigError(
            f"orbit-horizon must be at least 3 to test orbit growth, got {cfg.orbit_horizon}"
        )
    checks: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, passed, detail))

    t = composite_T()
    record("composite map preserves the intersection form", verify_isometry(t).ok)
    k = canonical_class()
    record("composite map fixes the canonical class", apply(t, k) == k)
    det = t.determinant()
    record("composite map is unimodular", det in (-1, 1), f"det = {det}")

    try:
        orientation = select_orientation()
    except CertificationError as err:
        orientation = OrientationReport("", ())
        record("orientation oracle selects the fixed composite", False, str(err))
    else:
        record(
            "orientation oracle selects the fixed composite",
            True,
            orientation.selected,
        )

    eigen = eigensystem(cfg.precision_digits)
    p = eigen.polynomial
    record("characteristic polynomial has degree 11", p.degree == 11)
    record(
        "characteristic polynomial anti-reciprocal",
        tuple(reversed(p.coeffs)) == tuple(-c for c in p.coeffs),
    )
    facts = CharpolyFacts.of(eigen)
    record("characteristic polynomial divisible by x - 1", facts.unit_root_multiplicity >= 1)
    record(
        "cyclotomic scan finds only the factor at n = 1",
        [n for n, _ in facts.cyclotomic] == [1],
        f"factors: {facts.cyclotomic}",
    )
    circle = facts.circle
    record(
        "exactly one root outside the unit circle",
        circle.outside == 1,
        f"outside {circle.outside}, inside {circle.inside}, on circle {circle.on_circle}",
    )
    record(
        "reciprocal symmetry of the root layout",
        circle.outside == circle.inside,
        "counts inside and outside agree",
    )

    lam = eigen.dominant_value
    record(
        "dominant eigenvalue exceeds 1",
        lam.lo > 1,
        f"lambda = {decimal_string(lam.midpoint, 12)}...",
    )
    r = eigen.r()
    r_sum = r[0] + r[1] + r[2]
    record(
        "r1 + r2 + r3 exceeds 1",
        r_sum.lo > 1,
        f"sum = {decimal_string(r_sum.midpoint, 12)}...",
    )
    # v = a(lambda) / a_0(lambda) with a_0(lambda) != 0 certified, so v.v and
    # v.K vanish iff these polynomials vanish at lambda, a root of s; the
    # enclosures are a numeric cross-check
    a, s = eigen.adjugate_column, eigen.off_unit_factor
    self_pairing = eigen.dominant_class.self_pair()
    record(
        "dominant class has self-intersection zero",
        combine(GRAM_DIAGONAL, [ai * ai for ai in a]).is_multiple_of(s)
        and self_pairing.contains_zero(),
        f"sum g_i a_i^2 = 0 mod s; interval {enclosure_json(self_pairing, 35)['mid']}",
    )
    k_weights = [g * c for g, c in zip(GRAM_DIAGONAL, k.integral_multiple()[0])]
    record(
        "dominant class pairs to zero with the canonical class",
        combine(k_weights, a).is_multiple_of(s)
        and eigen.dominant_class.pair(k).contains_zero(),
        "sum g_i K_i a_i = 0 mod s",
    )

    witness_ok = all(
        enc.lo >= ref - WITNESS_TOLERANCE and enc.hi <= ref + WITNESS_TOLERANCE
        for enc, ref in zip(eigen.t(), WITNESS_COEFFS)
    )
    record(
        "witness coefficients match the reference decimals",
        witness_ok,
        f"all within {float(WITNESS_TOLERANCE)}",
    )

    nef = full_report(eigen)
    checks.extend(nef.checks)

    orbit_data = _orbit_evidence(eigen, cfg.orbit_horizon)
    record(
        "orbit classes pairwise distinct",
        orbit_data.distinct,
        f"horizon {orbit_data.horizon}",
    )
    record(
        "orbit self-intersections all -2",
        orbit_data.all_self_intersection_minus_two,
    )
    record("orbit canonical degrees all 0", orbit_data.all_canonical_degree_zero)
    record(
        "orbit growth ratio converges to the eigenvalue",
        orbit_data.ratios_converged,
        f"within 1% from step {orbit_data.ratio_start}"
        if orbit_data.ratios_tested
        else f"no ratio from step {orbit_data.ratio_start} within horizon {orbit_data.horizon}",
    )
    record(
        "orbit max-norm eventually strictly increasing",
        orbit_data.max_norm_increasing_from is not None,
        f"from step {orbit_data.max_norm_increasing_from}",
    )

    return VerificationRun(
        config=cfg,
        eigen=eigen,
        nef=nef,
        orbit=orbit_data,
        certificates=tuple(checks),
        orientation_selected=orientation.selected,
        orientation_candidates=orientation.assessments,
        charpoly=facts,
    )


# -- JSON assembly ---------------------------------------------------------------


def _row_json(row: MarginRow, digits: int) -> dict:
    return {
        "d": row.candidate.degree,
        "a": list(row.candidate.mults),
        "margin": enclosure_json(row.margin, digits),
        "exact_zero": row.exact_zero,
    }


def _class_enclosure_json(enc: ClassEnclosure, digits: int) -> list[dict]:
    return [enclosure_json(c, digits) for c in enc.coeffs]


def build_report(run: VerificationRun) -> dict:
    """The complete JSON artifact for one verification run."""
    cfg = run.config
    digits = min(cfg.precision_digits, 40)
    eigen = run.eigen
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "precision_digits": cfg.precision_digits,
            "orbit_horizon": cfg.orbit_horizon,
        },
        "verdict": "pass" if run.verdict else "fail",
        "certificates": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in run.certificates
        ],
        "transform": {
            "matrix": [list(row) for row in eigen.transform.rows],
            "determinant": eigen.transform.determinant(),
            "orientation": {
                "selected": run.orientation_selected,
                "candidates": [
                    {"name": a.name, "matches": a.matches, "detail": a.detail}
                    for a in run.orientation_candidates
                ],
            },
        },
        "charpoly": run.charpoly.to_json(),
        "eigen": {
            "lambda": enclosure_json(eigen.dominant_value, digits),
            "dominant_class": _class_enclosure_json(eigen.dominant_class, digits),
            "r": [enclosure_json(e, digits) for e in eigen.r()],
            "beta": enclosure_json(eigen.line_component, digits),
            "t": [enclosure_json(e, digits) for e in eigen.t()],
            "pair_self": enclosure_json(eigen.dominant_class.self_pair(), digits),
            "pair_canonical": enclosure_json(
                eigen.dominant_class.pair(canonical_class()), digits
            ),
        },
        "nef": {
            "degree_one": [_row_json(r, digits) for r in run.nef.degree_one],
            "degree_two": {
                "count": run.nef.degree_two_count,
                "minimum": _row_json(run.nef.degree_two_minimum, digits),
            },
            "degrees": [
                {
                    "degree": s.degree,
                    "candidates": s.candidate_count,
                    "extremes": s.extreme_count,
                    "minimum": _row_json(s.minimum, digits),
                    "extreme_rows": [_row_json(r, digits) for r in s.extreme_rows],
                }
                for s in run.nef.degrees
            ],
            "cutoff": run.nef.cutoff,
            "cutoff_checked_through": run.nef.cutoff_checked_through,
            "l_squared": enclosure_json(run.nef.bigness.witness_self_pairing, digits),
            "volume_lower_bound": enclosure_json(
                run.nef.bigness.volume_lower_bound, digits
            ),
            "zero_witnesses": [_row_json(r, digits) for r in run.nef.zero_witnesses],
            "reference_rows": {
                "total": run.nef.reference_rows_total,
                "matched": run.nef.reference_rows_matched,
            },
            "extra_extreme_rows": [
                _row_json(r, digits) for r in run.nef.extra_extreme_rows
            ],
        },
        "orbit": {
            "seed": standard_line().to_json_array(),
            "horizon": run.orbit.horizon,
            "distinct": run.orbit.distinct,
            "ratio_start": run.orbit.ratio_start,
            "ratios_converged": run.orbit.ratios_converged,
            "max_norm_increasing_from": run.orbit.max_norm_increasing_from,
            "records": [
                {
                    "n": r.n,
                    "class": r.divisor.to_json_array(),
                    "self_intersection": f"{r.self_intersection.numerator}/{r.self_intersection.denominator}",
                    "canonical_degree": f"{r.canonical_degree.numerator}/{r.canonical_degree.denominator}",
                }
                for r in run.orbit.records
            ],
        },
    }


def render_report_json(run: VerificationRun) -> str:
    import json

    return json.dumps(build_report(run), indent=2, sort_keys=True) + "\n"


def load_schema() -> dict:
    import json
    from importlib import resources

    text = resources.files("voljump.schemas").joinpath("report-v1.json").read_text()
    return json.loads(text)
