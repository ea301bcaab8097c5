"""Full verification run and the deterministic JSON artifact.

Every certificate the package can produce is evaluated here in a fixed
order (the all-n orbit lines from the seed's pairings and named premises, a
walk only for growth, max-norm and the records); the JSON report holds exact
rational endpoints (decimal fields are display-only midpoints), so two runs
with the same configuration emit byte-identical artifacts.  Each section with
data is built beside its type (`CharpolyFacts.to_json`, `EigenSystem.to_json`,
`NefReport.to_json`, `orbit.record_json`), by the builder the data commands
print with, so a fact's JSON has one form; this module builds no enclosure's
JSON itself.
"""

from __future__ import annotations

from .config import RunConfig
from .errors import CertificationError, Record
from .intervals import decimal_string
from .lattice import CANONICAL, GRAM_DIAGONAL, LINE, pair_integers, standard_line
from .nefcheck import Certificates, CheckResult, NefReport, full_report
from .orbit import increase_start, ratio_pairs, record_json, walk
from .polynomials import combine
from .reference import WITNESS_TOLERANCE_MILLI, witness_matches
from .spectral import CharpolyFacts, EigenSystem, eigensystem, select_orientation, sign_at
from .transform import apply_integers, verify_isometry

SCHEMA_VERSION = "1"
ISOMETRY = "composite map preserves the intersection form"
K_FIXED = "composite map fixes the canonical class"
RELATION = "eigen-relation (xI - T) a = p e_0 holds as polynomials"
DISTINCT = "orbit classes pairwise distinct"


class OrbitEvidence(Record):
    ratio_start: int
    ratios_tested: int
    ratios_converged: bool
    max_norm_increasing_from: int | None
    vectors: list  # T^n(line) as integers, n < horizon


def _orbit_evidence(eigen: EigenSystem, horizon: int) -> OrbitEvidence:
    """The growth and max-norm facts and the records, from one integer walk of the line class."""
    vectors = walk(eigen.transform, LINE, horizon)
    start = 30 if horizon >= 33 else max(3, horizon - 3)
    lo, hi, den = eigen.eigenvalue
    # h_(n+1) / h_n = b / a, a > 0, within [0.99 lambda.lo, 1.01 lambda.hi]
    tested = ratio_pairs([(n, vectors[n][0]) for n in range(start, horizon)])
    converged = bool(tested) and all(99 * lo * a <= 100 * den * b <= 101 * a * hi for _, a, b in tested)
    return OrbitEvidence(
        ratio_start=start,
        ratios_tested=len(tested),
        ratios_converged=converged,
        max_norm_increasing_from=increase_start(vectors),
        vectors=vectors,
    )


class VerificationRun(Record):
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
    """Evaluate every certificate in a fixed order on `eigen.transform`; collect the evidence."""
    cfg = config or RunConfig()
    cfg.validate()
    checks = Certificates()
    record = checks.record
    eigen = eigensystem(cfg.precision_digits)
    t = eigen.transform
    isometry = verify_isometry(t)
    defects = [(i, j, x) for i, row in enumerate(isometry.residual or ()) for j, x in enumerate(row) if x]
    detail = "(M^T G M - G)[{}][{}] = {}".format(*defects[0]) if defects else ""
    record(ISOMETRY, isometry.ok, detail)
    record(K_FIXED, apply_integers(t, CANONICAL) == CANONICAL)
    # at p(lambda) = 0 the relation gives T a(lambda) = lambda a(lambda), a_0(lambda) != 0
    row = eigen.relation_row
    record(RELATION, row is None, "T v = lambda v" if row is None else f"row {row} fails")

    (selected, candidates), failure = ("", ()), None
    if row is None:  # else the oracle line fails by its premise, with nothing to select
        try:
            selected, candidates = select_orientation(eigen)
        except CertificationError as err:
            failure = str(err)
    record(
        "orientation oracle selects the fixed composite",
        failure is None,
        selected if failure is None else failure,
        RELATION,
    )

    p = eigen.polynomial
    anti = tuple(reversed(p.coeffs)) == tuple(-c for c in p.coeffs)
    record(
        "characteristic polynomial anti-reciprocal",
        anti,
        "det T = -p(0) = 1 and p(1) = 0" if anti else "p(x) != -x^11 p(1/x)",
    )
    facts = CharpolyFacts.of(eigen)
    record(
        "cyclotomic scan finds only the factor at n = 1",
        [n for n, _ in facts.cyclotomic] == [1],
        f"factors: {facts.cyclotomic}",
    )
    circle = facts.circle
    # lambda > 1: `dominant_bracket` isolates it in (1, top), else the run stops there
    lo, hi, den = eigen.eigenvalue
    record(
        "exactly one root outside the unit circle",
        circle.outside == 1,
        f"outside {circle.outside}, inside {circle.inside}, on circle {circle.on_circle}; "
        f"lambda = {decimal_string(lo + hi, 2 * den, 12)}...",
    )
    # v = a(lambda) / a_0(lambda), a_0(lambda) != 0: v.v and v.K are 0 iff these polynomials are
    a, s, powers = eigen.adjugate_column, eigen.off_unit_factor, eigen.scaled_column[2]
    self_zero = not sign_at(combine(GRAM_DIAGONAL, [ai * ai for ai in a]), s, powers, "v.v undecided")
    record(
        "dominant class has self-intersection zero",
        self_zero,
        f"sum g_i a_i^2 {'=' if self_zero else '!='} 0 at lambda",
    )
    k_weights = [g * c for g, c in zip(GRAM_DIAGONAL, CANONICAL)]
    k_zero = not sign_at(combine(k_weights, a), s, powers, "v.K undecided")
    record(
        "dominant class pairs to zero with the canonical class",
        k_zero,
        f"sum g_i K_i a_i {'=' if k_zero else '!='} 0 at lambda",
    )

    bits = eigen.grid_bits
    matches, detail = witness_matches(eigen.witness_numerators, bits)
    record(
        "witness coefficients match the reference decimals",
        matches,
        f"all within {WITNESS_TOLERANCE_MILLI / 1000}" if matches else detail,
    )

    nef = full_report(eigen)
    checks.extend(nef.checks)

    # for every n: T^n is an isometry fixing K, and T v = lambda v gives (T^n l).v = lambda^-n (l.v)
    # for l.v = sum g_i l_i a_i(lambda) / a_0(lambda); so with l.v != 0, T^n l = T^m l forces n = m
    weights = [g * c for g, c in zip(GRAM_DIAGONAL[1:], LINE[1:])]
    lv_lo, lv_hi = (  # l.v over 2^bits: each q_i's endpoint by the sign of its weight
        (LINE[0] << bits) + sum(w * q[k if w > 0 else 1 - k] for w, q in zip(weights, eigen.eigenvector))
        for k in (0, 1)
    )
    undecided = f"{DISTINCT}: l.v not certified nonzero"
    distinct = sign_at(combine((LINE[0], *weights), a), s, powers, undecided, (lv_lo, lv_hi)) != 0
    lv = decimal_string(lv_lo + lv_hi, 2 << bits, 12)
    detail = f"(T^n l).v = lambda^-n (l.v) with l.v = {lv}... != 0 and lambda > 1, for every n"
    detail = detail if distinct else "sum g_i l_i a_i = 0 at lambda: l.v = 0"
    record(DISTINCT, distinct, detail, ISOMETRY, RELATION)
    l2, lk = pair_integers(LINE, LINE), pair_integers(LINE, CANONICAL)
    record("orbit self-intersections all -2", l2 == -2, f"(T^n l)^2 = l^2 = {l2} for every n", ISOMETRY)
    detail = f"(T^n l).K = l.K = {lk} for every n"
    record("orbit canonical degrees all 0", lk == 0, detail, ISOMETRY, K_FIXED)
    orbit_data = _orbit_evidence(eigen, cfg.orbit_horizon)
    growth = f"within 1% from step {orbit_data.ratio_start}"
    if not orbit_data.ratios_tested:
        growth = f"no ratio from step {orbit_data.ratio_start} within horizon {cfg.orbit_horizon}"
    elif not orbit_data.ratios_converged:
        growth = "not " + growth
    record("orbit growth ratio converges to the eigenvalue", orbit_data.ratios_converged, growth)
    increasing = orbit_data.max_norm_increasing_from
    record(
        "orbit max-norm eventually strictly increasing",
        increasing is not None,
        f"from step {increasing}"
        if increasing is not None
        else f"no strictly increasing tail within horizon {cfg.orbit_horizon}",
    )

    return VerificationRun(
        config=cfg,
        eigen=eigen,
        nef=nef,
        orbit=orbit_data,
        certificates=tuple(checks),
        orientation_selected=selected,
        orientation_candidates=candidates,
        charpoly=facts,
    )


# -- JSON assembly ---------------------------------------------------------------


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
        "eigen": eigen.to_json(digits),
        "nef": run.nef.to_json(digits),
        "orbit": {
            "seed": standard_line().to_json_array(),
            "horizon": cfg.orbit_horizon,
            "distinct": next(c.passed for c in run.certificates if c.name == DISTINCT),
            "ratio_start": run.orbit.ratio_start,
            "ratios_converged": run.orbit.ratios_converged,
            "max_norm_increasing_from": run.orbit.max_norm_increasing_from,
            "records": [record_json(n, v) for n, v in enumerate(run.orbit.vectors)],
        },
    }


def render_report_json(run: VerificationRun) -> str:
    import json

    return json.dumps(build_report(run), indent=2, sort_keys=True) + "\n"

