import hashlib
import json
import re

import jsonschema
import pytest

from voljump.config import RunConfig
from voljump.lattice import standard_line
from voljump.orbit import (
    OrbitRecord,
    growth_profile,
    growth_ratios,
    max_norm_increase_start,
    orbit,
    verify_distinct,
)
from voljump.polynomials import IntPoly, combine, poly_gcd
from voljump.report import (
    _orbit_evidence,
    build_report,
    render_report_json,
    run_verification,
)
from voljump.spectral import CharpolyFacts

from helpers import column_values, load_schema


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


@pytest.mark.parametrize("horizon", [1, 2])
def test_a_horizon_too_short_for_growth_reports_a_failed_certificate(horizon):
    result = run_verification(RunConfig(orbit_horizon=horizon))
    failed = [c.name for c in result.certificates if not c.passed]
    assert failed[0] == "orbit growth ratio converges to the eigenvalue"
    payload = json.loads(render_report_json(result))
    jsonschema.validate(payload, load_schema())
    assert payload["verdict"] == "fail" and payload["orbit"]["horizon"] == horizon


def test_shorter_orbit_horizon(run):
    short = run_verification(RunConfig(orbit_horizon=40))
    assert short.verdict
    assert len(short.orbit.vectors) == 40


@pytest.mark.parametrize("horizon", [3, 4, 50, 400])
def test_orbit_evidence_matches_separate_walks(run, horizon):
    evidence = _orbit_evidence(run.eigen, horizon)
    seed = standard_line()
    assert [r.divisor.integral_multiple() for r in orbit(seed, horizon)] == [
        (v, 1) for v in evidence.vectors
    ]
    assert evidence.max_norm_increasing_from == max_norm_increase_start(seed, horizon)
    ratios = growth_ratios(growth_profile(seed, horizon))
    lam = run.eigen.dominant_value
    tested = [r for n, r in ratios if n >= evidence.ratio_start]
    assert evidence.ratios_tested == len(tested)
    converged = bool(tested) and all(
        lam.lo * 99 / 100 <= r <= lam.hi * 101 / 100 for r in tested
    )
    assert evidence.ratios_converged == converged


ALL_N_LINES = (
    "orbit classes pairwise distinct",
    "orbit self-intersections all -2",
    "orbit canonical degrees all 0",
)


@pytest.mark.parametrize("coxeter", [False, True], ids=["composite", "coxeter"])
def test_the_deduced_orbit_lines_agree_with_a_long_walk(bind_transform, monkeypatch, coxeter):
    """The walk is the reference of the all-n lines: 400 steps of the run's
    matrix, on the composite and on the Coxeter control, agree with each verdict."""
    from voljump import orbit as orbit_module
    from voljump.transform import composite_T, cremona_isometry, exceptional_shift

    m = cremona_isometry(1, 2, 3) @ exceptional_shift(1) if coxeter else composite_T()
    bind_transform(m)
    monkeypatch.setattr(orbit_module, "composite_T", lambda: m)
    lines = {c.name: c.passed for c in run_verification(RunConfig()).certificates}
    seed = standard_line()
    records = list(orbit(seed, 400))
    walked = (
        verify_distinct(seed, 400).distinct,
        all(r.self_intersection == -2 for r in records),
        all(r.canonical_degree == 0 for r in records),
    )
    assert tuple(lines[name] for name in ALL_N_LINES) == walked == (True, True, True)


def test_the_all_n_orbit_lines_read_no_walk(run, monkeypatch):
    """Neither the horizon nor a walk of garbage moves the three all-n lines
    or the report's `orbit.distinct`."""
    from voljump import report

    def all_n(result):
        return [c for c in result.certificates if c.name in ALL_N_LINES]

    assert len(all_n(run)) == 3
    for horizon in (1, 3, 400):
        assert all_n(run_verification(RunConfig(orbit_horizon=horizon))) == all_n(run)
    monkeypatch.setattr(report, "walk", lambda m, vector, count: [(7,) * 11] * count)
    garbage = run_verification(RunConfig())
    assert all_n(garbage) == all_n(run)
    assert build_report(garbage)["orbit"]["distinct"] is True


def test_verification_builds_no_orbit_record(monkeypatch):
    built = []
    original = OrbitRecord.of.__func__

    def counted(cls, *args):
        built.append(args[0])
        return original(cls, *args)

    monkeypatch.setattr(OrbitRecord, "of", classmethod(counted))
    result = run_verification(RunConfig())
    assert result.verdict
    # the report prints its records straight from the run's integer vectors
    records = build_report(result)["orbit"]["records"]
    assert built == []
    assert len(records) == 50
    assert records[0] == {
        "n": 0,
        "class": standard_line().to_json_array(),
        "self_intersection": "-2/1",
        "canonical_degree": "0/1",
    }


def _shift_reference(eigen, monkeypatch):
    from voljump import reference

    shifted = (reference.WITNESS_MILLI[0] + 3,) + reference.WITNESS_MILLI[1:]
    monkeypatch.setattr(reference, "WITNESS_MILLI", shifted)
    return eigen


def _swap_heaviest_weights(eigen, monkeypatch):
    values = list(eigen.witness_values)  # D, B, N_1..N_10: N_4 and N_5 swapped
    values[5], values[6] = values[6], values[5]
    return eigen._replace(witness_values=tuple(values))


def _shift_witness(index):
    """The mutation adding 1 to witness polynomial `index` of (D, B, N_1..N_10)."""

    def mutate(eigen, monkeypatch):
        polys = list(eigen.witness_polynomials)
        polys[index] = combine((1, 1), (polys[index], IntPoly([1])))
        values = tuple(column_values(polys, eigen.eigenvalue))
        return eigen._replace(witness_polynomials=tuple(polys), witness_values=values)

    return mutate


def _negate_constant_term(eigen, monkeypatch):
    p = eigen.polynomial  # p(0) = -1 becomes 1, i.e. det T = -1
    return eigen._replace(polynomial=IntPoly((-p.coeffs[0],) + p.coeffs[1:]))


def _shift_adjugate_entry(eigen, monkeypatch):
    column = list(eigen.adjugate_column)
    column[4] = combine((1, 1), (column[4], IntPoly([1])))
    return eigen._replace(adjugate_column=tuple(column))


@pytest.mark.parametrize(
    "mutate, name, detail",
    [
        (_negate_constant_term, "characteristic polynomial anti-reciprocal", r"p\(x\) != -x\^11 p\(1/x\)"),
        (
            _shift_reference,
            "witness coefficients match the reference decimals",
            r"coefficient off reference by up to 0\.0026",
        ),
        (_swap_heaviest_weights, "witness coefficient ordering certified", r"t_4 > t_5 not certified"),
        (
            _shift_witness(4),
            "degree-1 margins nonnegative",
            r"D - N1 - N2 - N3 != 0 as polynomials",
        ),
        (_shift_witness(1), "square-sum identity certified", r"sum N_i\^2 - D\^2 \+ 2 B\^2 != 0 at lambda"),
        (
            _shift_adjugate_entry,
            "dominant class has self-intersection zero",
            r"sum g_i a_i\^2 != 0 at lambda",
        ),
        (
            _shift_adjugate_entry,
            "dominant class pairs to zero with the canonical class",
            r"sum g_i K_i a_i != 0 at lambda",
        ),
    ],
    ids=["anti-reciprocal", "reference", "ordering", "line-class", "square-sum", "self-pairing", "canonical-pairing"],
)
def test_a_failed_certificate_names_what_failed(eigen, monkeypatch, mutate, name, detail):
    """A FAIL line's detail says what failed; it never restates the claim."""
    from voljump import report

    mutated = mutate(eigen, monkeypatch)
    monkeypatch.setattr(report, "eigensystem", lambda digits: mutated)
    checks = {c.name: c for c in run_verification(RunConfig()).certificates}
    assert not checks[name].passed
    assert re.fullmatch(detail, checks[name].detail)


def test_report_reuses_the_runs_charpoly_facts(run, monkeypatch):
    from voljump import spectral

    def forbidden(*args, **kwargs):
        raise AssertionError("recomputed on the report path")

    for name in ("squarefree_circle_count", "split_cyclotomic_factors"):
        monkeypatch.setattr(spectral, name, forbidden)
    payload = build_report(run)
    assert payload["charpoly"]["roots"] == {
        "outside_unit_circle": 1,
        "inside_unit_circle": 1,
        "on_unit_circle": 9,
    }
    assert payload["charpoly"]["cyclotomic_factors"] == [[1, 1]]


def test_a_run_decides_no_determinant(monkeypatch):
    """det T = 1 is read off the anti-reciprocal line; the run computes no
    determinant of its own."""
    from voljump.transform import LatticeIsometry

    def forbidden(self):
        raise AssertionError("determinant computed on the run path")

    monkeypatch.setattr(LatticeIsometry, "determinant", forbidden)
    assert run_verification(RunConfig()).verdict


def test_a_run_computes_no_self_pairing(monkeypatch):
    """v.v = 0 is decided mod s; the run encloses no v.v of its own, which
    only the report's `eigen.pair_self` reads."""
    from voljump.spectral import EigenSystem

    def forbidden(self):
        raise AssertionError("self-pairing computed on the run path")

    monkeypatch.setattr(EigenSystem, "self_pairing", forbidden)
    assert run_verification(RunConfig()).verdict


def test_charpoly_facts_strip_nothing(eigen, monkeypatch):
    """k and s come from the spectral core's factorization, not a second strip:
    k = 1, and s is the core's own factor."""
    from voljump import spectral

    def forbidden(*args, **kwargs):
        raise AssertionError("(x - 1) stripped again")

    monkeypatch.setattr(spectral, "strip_rational_root", forbidden)
    facts = CharpolyFacts.of(eigen)
    assert (facts.unit_root_multiplicity, facts.off_unit_factor) == (1, eigen.off_unit_factor)


def test_charpoly_facts_check_the_off_unit_factor(eigen):
    """The facts' s and k, checked by arithmetic of their own: s(1) != 0,
    p = (x - 1)^k s as a product of `IntPoly`s, and gcd(s, s') constant."""
    facts = CharpolyFacts.of(eigen)
    s, k = facts.off_unit_factor, facts.unit_root_multiplicity
    assert s(1) != 0
    product = s
    for _ in range(k):
        product = product * IntPoly([-1, 1])
    assert product == eigen.polynomial
    assert poly_gcd(s, s.derivative()).degree == 0


def test_the_run_binds_its_matrix_once(monkeypatch):
    """`eigensystem` is the run's one call of `composite_T`; every other stage
    certifies `eigen.transform`."""
    from voljump import orbit, report, spectral, transform

    calls = []

    def counted(module):
        def bound():
            calls.append(module.__name__)
            return transform.composite_T()

        return bound

    for module in (spectral, orbit):
        monkeypatch.setattr(module, "composite_T", counted(module))
    assert not hasattr(report, "composite_T")
    spectral.eigensystem.cache_clear()
    assert run_verification(RunConfig()).verdict
    assert calls == ["voljump.spectral"]


#: The run on McMullen's Coxeter element, whose lambda is Lehmer's number:
#: (certificate name, passed), in the run's order.
COXETER_VERDICTS = [
    ("composite map preserves the intersection form", True),
    ("composite map fixes the canonical class", True),
    ("eigen-relation (xI - T) a = p e_0 holds as polynomials", True),
    ("orientation oracle selects the fixed composite", False),
    ("characteristic polynomial anti-reciprocal", True),
    ("cyclotomic scan finds only the factor at n = 1", True),
    ("exactly one root outside the unit circle", True),
    ("dominant class has self-intersection zero", True),
    ("dominant class pairs to zero with the canonical class", True),
    ("witness coefficients match the reference decimals", False),
    ("witness coefficient ordering certified", False),
    ("degree-1 margins nonnegative", True),
    ("degree-2 margins positive", True),
    ("degrees 3..6 full enumeration margins positive", False),
    ("reference table reproduced", False),
    ("square-sum identity certified", True),
    ("Cauchy-Schwarz cutoff covers all higher degrees", False),
    ("orbit classes pairwise distinct", True),
    ("orbit self-intersections all -2", True),
    ("orbit canonical degrees all 0", True),
    ("orbit growth ratio converges to the eigenvalue", True),
    ("orbit max-norm eventually strictly increasing", True),
]


def test_the_composite_run_records_the_coxeter_lines_in_order(run):
    """Both runs record the same lines: one retired or added on one path only shows here."""
    assert [c.name for c in run.certificates] == [name for name, _ in COXETER_VERDICTS]


def test_coxeter_element_is_a_known_answer_negative_control(bind_transform):
    """Every certificate runs on the matrix bound in `eigensystem`, the one
    binding patched here: McMullen's Coxeter element cremona(1, 2, 3) S_1 is
    an isometry fixing K with a Salem factor, but not the paper's map.  A stage
    that bound the composite on its own would flip a pinned value: the
    oracle would PASS, and a walk of the composite would fail the growth line
    (its ratios tend to the composite's lambda, not Lehmer's number)."""
    import mpmath as mp

    from voljump.transform import cremona_isometry, exceptional_shift

    bind_transform(cremona_isometry(1, 2, 3) @ exceptional_shift(1))
    result = run_verification(RunConfig())
    assert [(c.name, c.passed) for c in result.certificates] == COXETER_VERDICTS
    details = {c.name: c.detail for c in result.certificates}
    assert "selected cremona(1, 2, 3), shift+3" in details["orientation oracle selects the fixed composite"]
    assert details["reference table reproduced"].startswith("0/34 rows")
    assert details["Cauchy-Schwarz cutoff covers all higher degrees"] == "cutoff degree 13"
    assert details["orbit max-norm eventually strictly increasing"] == "from step 12"
    # (x - 1) times Lehmer's polynomial x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1
    lehmer = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    assert result.eigen.polynomial == IntPoly([-1, 1]) * lehmer
    assert result.eigen.polynomial.coeffs == (-1, 0, 1, 1, 0, 0, 0, 0, -1, -1, 0, 1)
    # lambda's enclosure is about 1e-84 wide: compare above that resolution
    with mp.workdps(120):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(lehmer.coeffs)], maxsteps=400, extraprec=400)
        largest = max(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -100)
        lam = result.eigen.dominant_value
        assert mp.mpf(lam.lo.numerator) / lam.lo.denominator < largest
        assert largest < mp.mpf(lam.hi.numerator) / lam.hi.denominator
        assert mp.nstr(largest, 12) == "1.17628081826"


def test_coxeter_certificate_text_is_pinned(bind_transform):
    """The whole text of the control's failing run, details and verdict, is
    pinned as `tests/test_outputs.py` pins passing runs: the degrees 3..6
    line reads `premise failed: witness coefficient ordering certified`."""
    from voljump.cli import _certificate_text
    from voljump.transform import cremona_isometry, exceptional_shift

    bind_transform(cremona_isometry(1, 2, 3) @ exceptional_shift(1))
    text, code = _certificate_text(run_verification(RunConfig()).certificates)
    assert code == 1 and len(text.splitlines()) == 23
    digest = "8c66e3915a728e5a2ec651115a877887e837a7ef1a9cb16b78fbb621b2e43a97"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
