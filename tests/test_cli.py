import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from voljump.cli import main
from voljump.reference import TABLE_ROWS, TABLE_TOLERANCE
from voljump.report import load_schema
from voljump.transform import composite_T


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dump_matrix_text(capsys):
    code, out, _ = run_cli(capsys, "dump-matrix")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 11
    assert lines[0].split() == ["2", "0", "0", "0", "0", "0", "0", "0", "1", "1", "1"]


def test_dump_matrix_json(capsys):
    code, out, _ = run_cli(capsys, "dump-matrix", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [list(r) for r in composite_T().rows]


def test_charpoly_json(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["coefficients_ascending"]) == 12
    assert payload["cyclotomic_factors"] == [[1, 1]]
    assert payload["unit_root_multiplicity"] == 1
    assert payload["roots"]["outside_unit_circle"] == 1


def test_eigen_json_round_trips_fractions(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    lam = payload["lambda"]
    lo, hi = Fraction(lam["lo"]), Fraction(lam["hi"])
    assert 1 < lo <= hi < 2
    assert len(payload["r"]) == len(payload["t"]) == 10


def test_eigen_text_digit_count(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--tol-digits", "8")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("lambda = 1.")
    assert len(first.split(".")[-1]) == 8


def test_nef_table_markdown_contains_reference_rows(capsys):
    code, out, _ = run_cli(capsys, "nef-table")
    assert code == 0
    rows = {}
    for line in out.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 12 and cells[0].isdigit():
            key = (int(cells[0]), tuple(int(x) for x in cells[1:11]))
            rows[key] = Fraction(cells[11].replace(".", "")) / 1000
    for degree, mults, reference in TABLE_ROWS:
        assert (degree, mults) in rows
        assert abs(rows[(degree, mults)] - reference) <= TABLE_TOLERANCE


def test_nef_table_csv_is_crlf(capsys):
    code, out, _ = run_cli(capsys, "nef-table", "--format", "csv")
    assert code == 0
    assert "\r\n" in out
    header = out.split("\r\n", 1)[0]
    assert header == "d,a1,a2,a3,a4,a5,a6,a7,a8,a9,a10,margin_midpoint"


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--d", "3")
    assert code == 0
    assert "# 25 candidates at degree 3" in out
    code, out, _ = run_cli(capsys, "enumerate", "--d", "3", "--extreme")
    assert "# 4 candidates at degree 3 (extreme only)" in out


def test_enumerate_rejects_bad_degree(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--d", "9"])
    assert excinfo.value.code == 2


def test_orbit_text(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=0")
    assert "C^2=-2" in lines[0]
    assert lines[-1] == "distinct: True"


def test_orbit_custom_requires_coeffs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["orbit", "--seed", "custom"])
    assert excinfo.value.code == 2


def test_orbit_custom_seed(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit",
        "--seed",
        "custom",
        "--coeffs", "-3", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1",
        "--n", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distinct"] is False
    assert payload["collision"] == [0, 1]


def test_precision_floor_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--precision-digits", "5"])
    assert excinfo.value.code == 2


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_config_file_and_env(tmp_path, monkeypatch, capsys):
    config = tmp_path / "voljump.cfg"
    config.write_text("orbit-horizon = 7  # short orbit\n")
    monkeypatch.setenv("VOLJUMP_CONFIG", str(config))
    code, out, _ = run_cli(capsys, "orbit")
    assert code == 0
    data_lines = [line for line in out.splitlines() if line.startswith("n=")]
    assert len(data_lines) == 7
    monkeypatch.delenv("VOLJUMP_CONFIG")


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("speed = fast\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["orbit", "--config", str(config)])
    assert excinfo.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "matrix.json"
    code, out, _ = run_cli(capsys, "dump-matrix", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == [list(r) for r in composite_T().rows]


def test_nef_verify_passes(capsys):
    code, out, err = run_cli(capsys, "nef-verify")
    assert code == 0
    assert "verdict: pass" in out
    assert err == ""


def test_verify_passes(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    assert "verdict: pass" in out
    assert err == ""
    assert all(line.startswith(("[PASS]", "verdict")) for line in out.splitlines())


def test_report_is_deterministic_and_valid(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["report", "--out", str(first)]) == 0
    assert main(["report", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    jsonschema.validate(payload, load_schema())
    assert payload["verdict"] == "pass"
    assert payload["nef"]["reference_rows"] == {"matched": 34, "total": 34}
    assert payload["nef"]["cutoff"] <= 7


def test_nef_verify_tol_flag(capsys):
    code, out, _ = run_cli(capsys, "nef-verify", "--tol", "30")
    assert code == 0
    assert "verdict: pass" in out


def test_precision_budget_maps_to_exit_3(monkeypatch, capsys):
    from voljump import cli
    from voljump.errors import PrecisionBudgetError

    def exhausted(args, cfg):
        raise PrecisionBudgetError("synthetic")

    monkeypatch.setitem(cli.COMMANDS, "charpoly", exhausted)
    code = cli.main(["charpoly"])
    captured = capsys.readouterr()
    assert code == 3
    assert "precision budget exhausted" in captured.err


def test_certification_failure_maps_to_exit_1(monkeypatch, capsys):
    from voljump import cli
    from voljump.errors import CertificationError

    def failing(args, cfg):
        raise CertificationError("synthetic")

    monkeypatch.setitem(cli.COMMANDS, "charpoly", failing)
    code = cli.main(["charpoly"])
    captured = capsys.readouterr()
    assert code == 1
    assert "certificate failure" in captured.err


def test_verify_reports_first_failure(monkeypatch, capsys):
    from voljump import cli
    from voljump.nefcheck import CheckResult

    class StubRun:
        certificates = (
            CheckResult("good", True),
            CheckResult("bad certificate", False, "synthetic"),
        )

    monkeypatch.setattr(cli, "run_verification", lambda cfg: StubRun())
    code = cli.main(["verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert "failed: bad certificate" in captured.err
    assert "[FAIL] bad certificate" in captured.out


def test_oracle_failure_is_a_failed_certificate(monkeypatch, capsys):
    from voljump import spectral
    from voljump.transform import LatticeIsometry

    # a lone identity reading cannot reproduce the reference coefficients
    monkeypatch.setattr(
        spectral, "candidate_composites", lambda: {"identity": LatticeIsometry.identity()}
    )
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: orientation oracle selects the fixed composite" in err
    assert (
        "[FAIL] orientation oracle selects the fixed composite "
        "(orientation oracle must single out one candidate, found 0)"
    ) in out.splitlines()
    assert out.splitlines()[-1] == "verdict: fail"


def test_verify_rejects_orbit_horizon_below_three(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["verify", "--orbit-horizon", "2"])
    assert stop.value.code == 2
    assert "orbit-horizon" in capsys.readouterr().err


def test_verify_fails_growth_certificate_without_tested_ratio(capsys):
    code, out, err = run_cli(capsys, "verify", "--orbit-horizon", "4")
    assert code == 1
    assert "failed: orbit growth ratio converges to the eigenvalue" in err
    assert (
        "[FAIL] orbit growth ratio converges to the eigenvalue "
        "(no ratio from step 3 within horizon 4)"
    ) in out.splitlines()


def test_verify_runs_without_mpmath():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import sys; from voljump.cli import main; code = main(['verify']); "
        "print('mpmath' in sys.modules); sys.exit(code)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_verify_passes_with_asserts_stripped():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "voljump.cli", "verify"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "verdict: pass"


def test_nef_verify_checks_its_ordering_premise(monkeypatch, capsys):
    from voljump import nefcheck

    order = list(nefcheck.WEIGHT_ORDER)
    order[0], order[1] = order[1], order[0]
    monkeypatch.setattr(nefcheck, "WEIGHT_ORDER", tuple(order))
    code, out, err = run_cli(capsys, "nef-verify")
    assert code == 1
    assert "failed: witness coefficient ordering certified" in err
    assert "[FAIL] witness coefficient ordering certified (strict descending chain)" in out


def test_corrupted_adjugate_column_fails_self_intersection(monkeypatch, capsys):
    import dataclasses

    from voljump import report
    from voljump.polynomials import IntPoly

    eigen = report.eigensystem(60)
    column = list(eigen.adjugate_column)
    column[4] = IntPoly((column[4].coeffs[0] + 1,) + column[4].coeffs[1:])
    corrupted = dataclasses.replace(eigen, adjugate_column=tuple(column))
    monkeypatch.setattr(report, "eigensystem", lambda digits: corrupted)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: dominant class has self-intersection zero" in err
    assert "[FAIL] dominant class pairs to zero with the canonical class" in out
    assert out.splitlines()[-1] == "verdict: fail"


def test_config_file_rejects_refinement_budget(tmp_path, capsys):
    config = tmp_path / "old.cfg"
    config.write_text("refinement-budget = 3\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--config", str(config)])
    assert excinfo.value.code == 2
    assert "refinement-budget" in capsys.readouterr().err


def test_refinement_budget_flag_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--refinement-budget", "3"])
    assert excinfo.value.code == 2
    assert "--refinement-budget" in capsys.readouterr().err
