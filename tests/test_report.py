import json

import jsonschema
import pytest

from voljump.config import RunConfig
from voljump.errors import CertificationError
from voljump.lattice import standard_line
from voljump.orbit import (
    growth_profile,
    growth_ratios,
    max_norm_increase_start,
    orbit,
    verify_distinct,
)
from voljump.polynomials import IntPoly
from voljump.report import (
    _orbit_evidence,
    build_report,
    load_schema,
    render_report_json,
    run_verification,
)
from voljump.spectral import CharpolyFacts


@pytest.fixture(scope="module")
def run():
    return run_verification(RunConfig())


def test_all_certificates_pass(run):
    failed = [c.name for c in run.certificates if not c.passed]
    assert failed == []
    assert run.verdict


def test_certificate_names_cover_modules(run):
    names = " ".join(c.name for c in run.certificates)
    for fragment in (
        "intersection form",
        "canonical class",
        "orientation",
        "anti-reciprocal",
        "cyclotomic",
        "unit circle",
        "eigenvalue",
        "reference",
        "enumeration",
        "Cauchy-Schwarz",
        "orbit",
        "square-sum",
    ):
        assert fragment in names


def test_orientation_note(run):
    assert "shift+3" in run.orientation_selected
    matches = [a for a in run.orientation_candidates if a.matches]
    assert len(matches) == 1


def test_report_structure(run):
    payload = build_report(run)
    jsonschema.validate(payload, load_schema())
    assert payload["schema_version"] == "1"
    assert len(payload["orbit"]["records"]) == run.config.orbit_horizon
    assert payload["charpoly"]["unit_root_multiplicity"] == 1
    degrees = {entry["degree"]: entry for entry in payload["nef"]["degrees"]}
    assert degrees[3]["candidates"] == 25
    assert degrees[6]["extremes"] == 24
    assert payload["transform"]["determinant"] == 1


def test_report_rendering_is_deterministic(run):
    assert render_report_json(run) == render_report_json(run)


def test_report_contains_no_floats(run):
    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into the report")
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(json.loads(render_report_json(run)))


def test_shorter_orbit_horizon(run):
    short = run_verification(RunConfig(orbit_horizon=40))
    assert short.verdict
    assert len(short.orbit.records) == 40


@pytest.mark.parametrize("horizon", [50, 400])
def test_orbit_evidence_matches_separate_walks(run, horizon):
    evidence = _orbit_evidence(run.eigen, horizon)
    seed = standard_line()
    assert evidence.records == tuple(orbit(seed, horizon))
    assert evidence.distinct == verify_distinct(seed, horizon).distinct
    assert evidence.max_norm_increasing_from == max_norm_increase_start(seed, horizon)
    ratios = growth_ratios(growth_profile(seed, horizon))
    lam = run.eigen.dominant_value
    converged = all(
        lam.lo * 99 / 100 <= r <= lam.hi * 101 / 100
        for n, r in ratios
        if n >= evidence.ratio_start
    )
    assert evidence.ratios_converged == converged


def test_report_reuses_the_runs_charpoly_facts(run, monkeypatch):
    from voljump import spectral

    def forbidden(*args, **kwargs):
        raise AssertionError("recomputed on the report path")

    for name in ("count_roots_outside_unit_circle", "cyclotomic_factors"):
        monkeypatch.setattr(spectral, name, forbidden)
    payload = build_report(run)
    assert payload["charpoly"]["roots"] == {
        "outside_unit_circle": 1,
        "inside_unit_circle": 1,
        "on_unit_circle": 9,
    }
    assert payload["charpoly"]["cyclotomic_factors"] == [[1, 1]]


def test_charpoly_facts_check_the_off_unit_factor(eigen):
    facts = CharpolyFacts.of(eigen)
    assert (facts.unit_root_multiplicity, facts.off_unit_factor) == (1, eigen.off_unit_factor)
    s = eigen.off_unit_factor
    # (x - 1)^0 * (x - 1) s = p, but the factor still has the root 1
    for wrong in (s * IntPoly([-1, 1]), IntPoly((s.coeffs[0] + 1,) + s.coeffs[1:])):
        with pytest.raises(CertificationError, match="times its off-unit factor"):
            CharpolyFacts.of(eigen._replace(off_unit_factor=wrong))
