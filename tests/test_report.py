import hashlib
import json
import re

import jsonschema
import pytest

from voljump import nefcheck, reference, report
from voljump.config import RunConfig
from voljump.lattice import CANONICAL, standard_line
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

from helpers import NEGATE_E1, column_values, load_schema


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


def _eigen(change):
    """The mutation running the report on `change(eigen)` in place of its eigensystem."""

    def mutate(eigen, monkeypatch, bind):
        mutated = change(eigen)
        monkeypatch.setattr(report, "eigensystem", lambda digits: mutated)

    return mutate


def _bound(matrix):
    """The mutation binding `matrix()` as the run's transform."""
    return lambda eigen, monkeypatch, bind: bind(matrix())


def _patched(module, attribute, value):
    """The mutation setting `module.attribute` to `value`."""
    return lambda eigen, monkeypatch, bind: monkeypatch.setattr(module, attribute, value)


def _horizon(horizon):
    return lambda eigen, monkeypatch, bind: RunConfig(orbit_horizon=horizon)


def _not_an_isometry():
    """One unit moved from E2 to E1 in the E2 row: K stays fixed, the form does not."""
    from voljump.transform import LatticeIsometry, composite_T

    rows = [list(r) for r in composite_T().rows]
    rows[2][1] += 1
    rows[2][2] -= 1
    return LatticeIsometry(rows)


def _moving_k():
    """The composite after E1 -> -E1: an isometry that moves K, whose s of
    degree 11 carries Phi_2 and Phi_6."""
    from voljump.transform import composite_T

    return composite_T() @ NEGATE_E1


def _break_relation_row_4(eigen, monkeypatch, bind):
    """a_4 + s: a(lambda) and the witness stay, row 4 of (xI - T) a = p e_0 fails."""
    from voljump import spectral
    from voljump.transform import composite_T

    composite, s, kernel = composite_T(), eigen.off_unit_factor, spectral.faddeev_leverrier

    def corrupted(m):
        p, column = kernel(m)
        if m == composite:
            column = (*column[:4], combine((1, 1), (column[4], s)), *column[5:])
        return p, column

    monkeypatch.setattr(spectral, "faddeev_leverrier", corrupted)
    bind(composite)  # clears the cached systems, so the run takes the corrupted pass


def _negate_constant_term(eigen):
    p = eigen.polynomial  # p(0) = -1 becomes 1, i.e. det T = -1
    return eigen._replace(polynomial=IntPoly((-p.coeffs[0],) + p.coeffs[1:]))


def _second_root_outside(eigen):
    """p and s times x - 2, which is clear of 0 at lambda."""
    x_2 = IntPoly([-2, 1])
    return eigen._replace(polynomial=eigen.polynomial * x_2, off_unit_factor=eigen.off_unit_factor * x_2)


def _swap_heaviest_weights(eigen):
    values = list(eigen.witness_values)  # D, B, N_1..N_10: N_4 and N_5 swapped
    values[5], values[6] = values[6], values[5]
    return eigen._replace(witness_values=tuple(values))


def _raise_n_values(indices, hundredths):
    """The values N_i(lambda), i in `indices`, raised by `hundredths` / 100 D(lambda):
    t_i grows by about that much, and the witness polynomials stay."""

    def change(eigen):
        values = list(eigen.witness_values)  # D, B, N_1..N_10
        step = values[0][1] * hundredths // 100
        for i in indices:
            lo, hi = values[i + 1]
            values[i + 1] = (lo + step, hi + step)
        return eigen._replace(witness_values=tuple(values))

    return change


def _lower_b(eigen):
    """B(lambda)'s lower end halved: the cutoff reads B.lo, the square-sum line the polynomials."""
    values = list(eigen.witness_values)
    values[1] = (values[1][0] // 2, values[1][1])
    return eigen._replace(witness_values=tuple(values))


def _shift_witness(index):
    """Witness polynomial `index` of (D, B, N_1..N_10) plus 1, with its values."""

    def change(eigen):
        polys = list(eigen.witness_polynomials)
        polys[index] = combine((1, 1), (polys[index], IntPoly([1])))
        values = tuple(column_values(polys, eigen.eigenvalue))
        return eigen._replace(witness_polynomials=tuple(polys), witness_values=values)

    return change


#: The census: for each line of a default run, in its order, an input under
#: which that line FAILs by its own detail (id, mutation, name, detail).  A
#: mutation takes (eigen, monkeypatch, bind_transform) and may return a config.
CENSUS = [
    (
        "isometry",
        _bound(_not_an_isometry),
        "composite map preserves the intersection form",
        r"\(M\^T G M - G\)\[0\]\[1\] = 1",
    ),
    ("k-fixed", _bound(_moving_k), "composite map fixes the canonical class", ""),
    ("relation", _break_relation_row_4, "eigen-relation (xI - T) a = p e_0 holds as polynomials", "row 4 fails"),
    (
        "oracle",
        _patched(reference, "WITNESS_MILLI", (reference.WITNESS_MILLI[0] + 3, *reference.WITNESS_MILLI[1:])),
        "orientation oracle selects the fixed composite",
        "orientation oracle must single out one candidate, found 0",
    ),
    (
        "anti-reciprocal",
        _eigen(_negate_constant_term),
        "characteristic polynomial anti-reciprocal",
        r"p\(x\) != -x\^11 p\(1/x\)",
    ),
    (
        "cyclotomic",
        _bound(_moving_k),
        "cyclotomic scan finds only the factor at n = 1",
        r"factors: \[\(2, 1\), \(6, 1\)\]",
    ),
    (
        "circle",
        _eigen(_second_root_outside),
        "exactly one root outside the unit circle",
        r"outside 2, inside 1, on circle 9; lambda = 1\.431000959137\.\.\.",
    ),
    ("ordering", _eigen(_swap_heaviest_weights), "witness coefficient ordering certified", r"t_4 > t_5 not certified"),
    ("line-class", _eigen(_shift_witness(4)), "degree-1 margins nonnegative", r"D - N1 - N2 - N3 != 0 as polynomials"),
    # t_4, t_5, t_1, t_2, t_6 up by 0.05: a conic through their points goes
    # negative, the two-point lines and the ordering hold
    ("conics", _eigen(_raise_n_values((4, 5, 1, 2, 6), 5)), "degree-2 margins positive", "252 conic classes"),
    # every t_i up by 0.01: the conics lose 0.05 of their least margin 0.23,
    # the cubic (1, 1, 1, 2, 1, 1, 1, 1, 0, 0) loses 0.09 of its 0.045
    (
        "enumeration",
        _eigen(_raise_n_values(range(1, 11), 1)),
        "degrees 3..6 full enumeration margins positive",
        "518 canonical candidates",
    ),
    (
        "table",
        # the first row's reference margin 1.169 moved to 1.269
        _patched(nefcheck, "TABLE_MILLI", ((*reference.TABLE_MILLI[0][:2], 1269), *reference.TABLE_MILLI[1:])),
        "reference table reproduced",
        r"33/34 rows within 0\.01",
    ),
    (
        "square-sum",
        _eigen(_shift_witness(1)),
        "square-sum identity certified",
        r"sum N_i\^2 - D\^2 \+ 2 B\^2 != 0 at lambda",
    ),
    ("cutoff", _eigen(_lower_b), "Cauchy-Schwarz cutoff covers all higher degrees", "cutoff degree 12"),
    (
        "distinct",
        _patched(report, "LINE", CANONICAL),
        "orbit classes pairwise distinct",
        "sum g_i l_i a_i = 0 at lambda: l.v = 0",
    ),
    (
        "self-intersection",
        _patched(report, "LINE", (1, -1, -1) + (0,) * 8),
        "orbit self-intersections all -2",
        r"\(T\^n l\)\^2 = l\^2 = -1 for every n",
    ),
    (
        "canonical-degree",
        _patched(report, "LINE", (1, -1, -1) + (0,) * 8),
        "orbit canonical degrees all 0",
        r"\(T\^n l\)\.K = l\.K = -1 for every n",
    ),
    ("growth", _horizon(3), "orbit growth ratio converges to the eigenvalue", "no ratio from step 3 within horizon 3"),
    (
        "max-norm",
        _horizon(1),
        "orbit max-norm eventually strictly increasing",
        "no strictly increasing tail within horizon 1",
    ),
]


def test_the_census_covers_every_line_of_a_default_run(run):
    """A new line arrives with its failing input, and a retired one takes its entry along."""
    assert [name for _, _, name, _ in CENSUS] == [c.name for c in run.certificates]


@pytest.mark.parametrize(
    "mutate, name, detail", [entry[1:] for entry in CENSUS], ids=[entry[0] for entry in CENSUS]
)
def test_a_failed_certificate_names_what_failed(eigen, monkeypatch, bind_transform, mutate, name, detail):
    """A FAIL line's detail says what failed; it never restates the claim, and
    never reads `premise failed`."""
    config = mutate(eigen, monkeypatch, bind_transform) or RunConfig()
    checks = {c.name: c for c in run_verification(config).certificates}
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
    """No line decides v.v = 0 (the square-sum line decides -4 v.v at lambda);
    the run encloses no v.v of its own, which only the report's
    `eigen.pair_self` reads."""
    from voljump.intervals import ClassEnclosure

    def forbidden(self):
        raise AssertionError("self-pairing computed on the run path")

    monkeypatch.setattr(ClassEnclosure, "self_pair", forbidden)
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


def test_the_unit_circle_count_isolates_no_real_root(eigen, monkeypatch):
    """One Routh-Hurwitz count decides every root of s against the circle:
    root isolation is left to lambda alone."""
    from voljump import polynomials

    def forbidden(*args, **kwargs):
        raise AssertionError("real roots isolated by the unit-circle count")

    monkeypatch.setattr(polynomials, "isolating_brackets", forbidden)
    assert CharpolyFacts.of(eigen).circle == (1, 1, 9)


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
    assert code == 1 and len(text.splitlines()) == 20
    digest = "f3e61f9dc01482002919e9709b3b718eebd4c002f67673111e8fd79ab93d8543"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
