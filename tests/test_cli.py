import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from voljump import polynomials, spectral, transform
from voljump.cli import main
from voljump.polynomials import poly_gcd
from voljump.reference import TABLE_ROWS, TABLE_TOLERANCE
from voljump.transform import composite_T

from helpers import clear_run_caches, load_schema
from test_outputs import PINNED


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


def test_nef_table_json_prints_the_margins_the_report_decided(capsys):
    code, out, _ = run_cli(capsys, "nef-table", "--format", "json")
    assert code == 0
    table = {(r["d"], tuple(r["a"])): r["margin"] for r in json.loads(out)}
    assert main(["report"]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = {
        (r["d"], tuple(r["a"])): r["margin"]
        for s in report["nef"]["degrees"]
        for r in s["extreme_rows"]
    }
    assert len(table) == len(rows) == 49
    assert all(table[key][end] == rows[key][end] for key in rows for end in ("lo", "hi"))


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
    code, out, _ = run_cli(capsys, "orbit", "--orbit-horizon", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=0")
    assert "C^2=-2" in lines[0]
    assert lines[-1] == "distinct: True"


def test_orbit_custom_requires_coeffs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["orbit", "--seed", "custom"])
    assert excinfo.value.code == 2


def test_orbit_coeffs_require_custom_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["orbit", "--coeffs", *["1"] * 11])
    assert excinfo.value.code == 2
    assert "--coeffs requires --seed custom" in capsys.readouterr().err


def test_orbit_rejects_empty_horizon(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["orbit", "--orbit-horizon", "0"])
    assert excinfo.value.code == 2


def test_orbit_custom_seed(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit",
        "--seed",
        "custom",
        "--coeffs", "-3", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1",
        "--orbit-horizon", "2",
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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["verify", "--bogus"],
        ["verify", "--precision-digits"],
        ["verify", "--precision-digits", "x"],
        ["verify", "--format", "xml"],
        ["orbit", "--seed", "bogus"],
        ["orbit", "--seed", "custom", "--coeffs", "1", "2", "3"],
        ["enumerate"],
    ],
    ids=[
        "no-command",
        "unknown-command",
        "unknown-option",
        "option-without-value",
        "non-integer-precision",
        "unknown-format",
        "unknown-seed",
        "three-coeffs",
        "enumerate-without-d",
    ],
)
def test_usage_errors_exit_2_with_usage_and_message(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


FORMAT_ERRORS = [
    (["verify", "--format", "json"], "text"),
    (["nef-verify", "--format", "json"], "text"),
    (["charpoly", "--format", "csv"], "text, json"),
    (["dump-matrix", "--format", "md"], "text, json"),
    (["eigen", "--format", "csv"], "text, json"),
    (["orbit", "--format", "md"], "text, json"),
    (["enumerate", "--d", "3", "--format", "md"], "text, json, csv"),
    (["nef-table", "--format", "text"], "md, csv, json"),
    (["report", "--format", "csv"], "json"),
    (["report", "--format", "text"], "json"),
]


USAGE_MESSAGES = [
    (["verify", "--o", "5"], "ambiguous option: --o could match --orbit-horizon, --out"),
    (["enumerate", "--d", "x"], "argument --d: invalid int value in 'x'"),
    (["verify", "--precision-digits", "x"], "argument --precision-digits: invalid int value in 'x'"),
]


@pytest.mark.parametrize("argv,message", USAGE_MESSAGES, ids=[" ".join(a) for a, _ in USAGE_MESSAGES])
def test_a_usage_error_names_what_is_wrong(argv, message, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0].startswith(f"usage: voljump {argv[0]} ")
    assert err.splitlines()[-1] == f"voljump {argv[0]}: error: {message}"


@pytest.mark.parametrize("argv,formats", FORMAT_ERRORS, ids=[" ".join(a) for a, _ in FORMAT_ERRORS])
def test_a_format_the_command_cannot_print_exits_2(argv, formats, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        f"voljump {argv[0]}: error: argument --format: invalid choice {argv[-1]!r} "
        f"(choose from {formats})"
    )


@pytest.mark.parametrize(
    "command,formats",
    [("verify", "text"), ("charpoly", "text, json"), ("nef-table", "md, csv, json"),
     ("enumerate", "text, json, csv"), ("report", "json")],
)
def test_help_lists_only_the_commands_formats(command, formats, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "-h"])
    assert stop.value.code == 0
    [line] = [line for line in capsys.readouterr().out.splitlines() if "output format" in line]
    assert line.split() == ["--format", "FMT", "output", "format:", *formats.split()]


UNREAD_FLAGS = [
    (["dump-matrix"], ["--tol-digits", "5"]),
    (["charpoly"], ["--orbit-horizon", "2"]),
    (["eigen"], ["--orbit-horizon", "7"]),
    (["nef-table"], ["--orbit-horizon", "7"]),
    (["nef-verify"], ["--orbit-horizon", "7"]),
    (["enumerate", "--d", "3"], ["--precision-digits", "5"]),
    (["orbit"], ["--precision-digits", "5"]),
    (["verify"], ["--tol-digits", "5"]),
    (["report"], ["--tol-digits", "5"]),
]


@pytest.mark.parametrize("argv,flag", UNREAD_FLAGS, ids=[a[0] for a, _ in UNREAD_FLAGS])
def test_a_flag_the_command_never_reads_exits_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv + flag)
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        f"voljump {argv[0]}: error: unrecognized arguments: {' '.join(flag)}"
    )
    with pytest.raises(SystemExit) as stop:
        main([argv[0], "-h"])
    assert stop.value.code == 0
    assert flag[0] not in capsys.readouterr().out


@pytest.mark.parametrize(
    "variant,long_form",
    [
        (["dump-matrix", "--format=json"], ["dump-matrix", "--format", "json"]),
        (["nef-verify", "--prec", "30"], ["nef-verify", "--precision-digits", "30"]),
        (
            ["orbit", "--orbit-horizon", "9", "--orbit-horizon", "3"],
            ["orbit", "--orbit-horizon", "3"],
        ),
    ],
    ids=["inline-value", "abbreviation", "repeated-option"],
)
def test_accepted_forms_print_what_the_long_form_prints(variant, long_form, capsys):
    assert main(variant) == 0
    out = capsys.readouterr().out
    assert main(long_form) == 0
    assert capsys.readouterr().out == out


def test_help_names_the_commands_and_the_options(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["-h"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    commands = (
        "dump-matrix", "charpoly", "eigen", "nef-table", "nef-verify",
        "enumerate", "orbit", "verify", "report",
    )
    assert all(name in out for name in commands)
    with pytest.raises(SystemExit) as stop:
        main(["orbit", "-h"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert "--seed" in out and "--coeffs" in out


def test_config_file_and_env(tmp_path, monkeypatch):
    # a run's settings are its flags: the environment names no file whose
    # keys would change what `verify` checks and prints, and no flag does
    config = tmp_path / "voljump.cfg"
    config.write_text("orbit-horizon = 3\nformat = json\n")
    monkeypatch.setenv("VOLJUMP_CONFIG", str(config))
    [(code, digest)] = [(code, digest) for argv, code, digest in PINNED if argv == ("verify",)]
    done = cli_process("verify")
    assert done.returncode == code, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == digest
    done = cli_process("verify", "--config", str(config))
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr.decode().splitlines()[-1] == (
        f"voljump verify: error: unrecognized arguments: --config {config}"
    )


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "matrix.json"
    code, out, _ = run_cli(capsys, "dump-matrix", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == [list(r) for r in composite_T().rows]


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "matrix.txt"
    with pytest.raises(SystemExit) as excinfo:
        main(["dump-matrix", "--out", str(target)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot write {target}" in err
    assert "Traceback" not in err


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


def test_verify_computes_each_squarefree_part_once(monkeypatch, capsys):
    # from cold caches, as in a fresh process: gcd(s, s') of the off-unit
    # factor s once for each of the oracle's two distinct char polys
    # (the oracle reads eigensystem(60)'s core for the composite, its
    # shift+3 representative), then the mirror gcd(s, reverse s) of the unit-circle
    # count; a gcd layer gcd(p, p') of the degree-11 p would show as (11, 10)
    clear_run_caches()
    calls = []

    def counted(a, b):
        calls.append((a.degree, b.degree))
        return poly_gcd(a, b)

    for module in (polynomials, spectral):
        monkeypatch.setattr(module, "poly_gcd", counted)
    code, _, _ = run_cli(capsys, "verify")
    assert code == 0
    assert calls == [(10, 9)] * 2 + [(10, 10)]


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
    code, out, _ = run_cli(capsys, "nef-verify", "--precision-digits", "30")
    assert code == 0
    assert "verdict: pass" in out


def test_precision_budget_maps_to_exit_3(monkeypatch, capsys):
    from voljump import cli
    from voljump.errors import PrecisionBudgetError

    def exhausted(args, cfg):
        raise PrecisionBudgetError("synthetic")

    monkeypatch.setattr(cli.COMMANDS["charpoly"], "run", exhausted)
    code = cli.main(["charpoly"])
    captured = capsys.readouterr()
    assert code == 3
    assert "precision too low to decide a certificate: synthetic" in captured.err


def test_certification_failure_maps_to_exit_1(monkeypatch, capsys):
    from voljump import cli
    from voljump.errors import CertificationError

    def failing(args, cfg):
        raise CertificationError("synthetic")

    monkeypatch.setattr(cli.COMMANDS["charpoly"], "run", failing)
    code = cli.main(["charpoly"])
    captured = capsys.readouterr()
    assert code == 1
    assert "certificate failure" in captured.err


def test_verify_reports_first_failure(monkeypatch, capsys):
    from voljump import cli, report
    from voljump.nefcheck import CheckResult

    class StubRun:
        certificates = (
            CheckResult("good", True),
            CheckResult("bad certificate", False, "synthetic"),
        )

    monkeypatch.setattr(report, "run_verification", lambda cfg: StubRun())
    code = cli.main(["verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert "failed: bad certificate" in captured.err
    assert "[FAIL] bad certificate" in captured.out


def test_oracle_failure_is_a_failed_certificate(monkeypatch, capsys):
    from voljump.transform import LatticeIsometry, Reading

    # a lone identity reading cannot reproduce the reference coefficients
    identity = LatticeIsometry.identity()
    reading = Reading("identity", identity, "identity", identity, tuple(range(11)))
    monkeypatch.setattr(spectral, "candidate_readings", lambda: [reading])
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: orientation oracle selects the fixed composite" in err
    assert (
        "[FAIL] orientation oracle selects the fixed composite "
        "(orientation oracle must single out one candidate, found 0)"
    ) in out.splitlines()
    assert out.splitlines()[-1] == "verdict: fail"


def test_wrong_conjugator_fails_the_oracle_naming_the_candidate(monkeypatch, capsys):
    # one slot more of rotation does not carry the representative to the
    # candidate; the mismatch is a failed certificate, not missing data
    readings = transform.candidate_readings()
    name = "cremona(8, 9, 10), shift-1, rotate-then-cremona"
    [k] = [k for k, r in enumerate(readings) if r.name == name]
    rep, q = readings[k].representative, readings[k].q
    readings[k] = readings[k]._replace(q=q[:1] + q[2:] + q[1:2])
    monkeypatch.setattr(spectral, "candidate_readings", lambda: readings)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: orientation oracle selects the fixed composite" in err
    assert (
        "[FAIL] orientation oracle selects the fixed composite "
        f"(conjugator of {name} does not carry {rep} to it)"
    ) in out.splitlines()


def test_verify_at_horizon_one_fails_both_growth_certificates(capsys):
    # a horizon too short to test growth is a failed certificate, not a usage error
    code, out, err = run_cli(capsys, "verify", "--orbit-horizon", "1")
    assert code == 1
    assert "failed: orbit growth ratio converges to the eigenvalue" in err
    lines = out.splitlines()
    assert (
        "[FAIL] orbit growth ratio converges to the eigenvalue "
        "(no ratio from step 3 within horizon 1)"
    ) in lines
    assert (
        "[FAIL] orbit max-norm eventually strictly increasing "
        "(no strictly increasing tail within horizon 1)"
    ) in lines


def test_verify_fails_growth_certificate_without_tested_ratio(capsys):
    for horizon in (2, 4):
        code, out, err = run_cli(capsys, "verify", "--orbit-horizon", str(horizon))
        assert code == 1
        assert "failed: orbit growth ratio converges to the eigenvalue" in err
        assert (
            "[FAIL] orbit growth ratio converges to the eigenvalue "
            f"(no ratio from step 3 within horizon {horizon})"
        ) in out.splitlines()


@pytest.mark.parametrize("horizon", [5, 6])
def test_verify_growth_failure_says_the_ratios_are_not_within_1_percent(horizon, capsys):
    code, out, err = run_cli(capsys, "verify", "--orbit-horizon", str(horizon))
    assert code == 1
    assert "failed: orbit growth ratio converges to the eigenvalue" in err
    assert (
        "[FAIL] orbit growth ratio converges to the eigenvalue (not within 1% from step 3)"
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


class Stream:
    """A stand-in for stdout or stderr that logs its flushes, or fails them."""

    def __init__(self, name, calls, error=None):
        self.name, self.calls, self.error = name, calls, error

    def flush(self):
        self.calls.append(f"flush {self.name}")
        if self.error:
            raise self.error


def test_entry_flushes_then_ends_the_process_with_mains_code(monkeypatch):
    # main() has flushed stdout, in `_emit`; stdout is not flushed again
    from voljump import cli

    calls = []
    monkeypatch.setattr(cli.gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
    monkeypatch.setattr(cli.sys, "stdout", Stream("stdout", calls))
    monkeypatch.setattr(cli.sys, "stderr", Stream("stderr", calls))
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(f"_exit {code}"))
    cli.entry()
    assert calls == ["disable", "main", "flush stderr", "_exit 7"]


def test_entry_returns_the_code_when_a_flush_fails(monkeypatch):
    # the normal exit then retries the flush and reports its failure
    from voljump import cli

    calls = []
    monkeypatch.setattr(cli.gc, "disable", lambda: None)
    monkeypatch.setattr(cli, "main", lambda: 5)
    monkeypatch.setattr(cli.sys, "stderr", Stream("stderr", calls, BrokenPipeError(32, "x")))
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(f"_exit {code}"))
    assert cli.entry() == 5
    assert calls == ["flush stderr"]


def test_entry_ends_the_process_with_a_system_exits_code(monkeypatch, capsys):
    # --help and usage errors end the process as main()'s return does
    from voljump import cli

    calls = []
    monkeypatch.setattr(cli.gc, "disable", lambda: None)
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(code))
    for argv, code in (["--help"], 0), (["verify", "--help"], 0), (["bogus"], 2):
        calls.clear()
        monkeypatch.setattr(cli.sys, "argv", ["voljump", *argv])
        cli.entry()
        assert calls == [code]
        out, err = capsys.readouterr()
        assert (out if code == 0 else err).startswith("usage: voljump")


def test_main_in_process_freezes_nothing(capsys):
    import gc

    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["verify"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


def test_an_entry_run_starts_no_collection():
    # collections started while entry() runs `verify`, counted by a callback
    # registered once the CLI is imported; the last line is their number
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # entry() ends the process by os._exit, so the probe's stand-in prints the
    # count and then ends it
    probe = (
        "import gc, os, sys; from voljump.cli import entry; starts = []; "
        "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info)); "
        "end = os._exit; os._exit = lambda code: (print(len(starts), flush=True), end(code)); "
        "sys.argv[1:] = ['verify']; entry()"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["verdict: pass", "0"]


def test_importing_the_cli_freezes_nothing():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import gc, voljump.cli; print(gc.get_freeze_count())"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_installed_script_is_the_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"voljump": "voljump.cli:entry"}


def test_entry_process_writes_what_main_writes(capsys):
    # ending the process by os._exit loses no output
    code, out, _ = run_cli(capsys, "report")
    assert code == 0
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "voljump.cli", "report"], capture_output=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == out.encode()


def cli_process(*argv, stdout=subprocess.PIPE, unbuffered=False):
    """`python -m voljump.cli ARGV` on this checkout's sources, output as bytes,
    with stdout block-buffered as a pipe's is by default, or unbuffered."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "voljump.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=300,
    )


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["nef-verify"], ["verify", "--orbit-horizon", "3"], ["report", "--out", "{}"]],
    ids=" ".join,
)
def test_entry_process_matches_main_in_process(argv, tmp_path, capsys):
    # stdout, stderr, exit code and the --out file's bytes of a process that
    # ends by os._exit are those of main() run in this process
    code, out, err = run_cli(capsys, *(a.format(tmp_path / "main.out") for a in argv))
    done = cli_process(*(a.format(tmp_path / "process.out") for a in argv))
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
    if "--out" in argv:
        assert (tmp_path / "process.out").read_bytes() == (tmp_path / "main.out").read_bytes()
    if argv[-1] == "3":
        assert code == 1 and "[FAIL]" in out


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["nef-verify"], ["dump-matrix"], ["report"], ["--help"], ["verify", "--help"]],
    ids=" ".join,
)
def test_a_closed_stdout_pipe_exits_2(argv, unbuffered):
    # the report is larger than stdout's buffer, the other texts fit it: each
    # meets the closed pipe in `_emit`'s write or flush, and the process ends
    # without flushing stdout again
    read, write = os.pipe()
    os.close(read)
    try:
        done = cli_process(*argv, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    prog = " ".join(["voljump", *argv[:1]]) if argv[0] != "--help" else "voljump"
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1].startswith(f"{prog}: error: cannot write stdout: ".encode())
    assert b"Traceback" not in done.stderr
    assert b"Exception ignored" not in done.stderr


def test_nef_verify_checks_its_ordering_premise(monkeypatch, capsys):
    from voljump import nefcheck

    order = list(nefcheck.WEIGHT_ORDER)
    order[0], order[1] = order[1], order[0]
    monkeypatch.setattr(nefcheck, "WEIGHT_ORDER", tuple(order))
    code, out, err = run_cli(capsys, "nef-verify")
    assert code == 1
    assert "failed: witness coefficient ordering certified" in err
    assert "[FAIL] witness coefficient ordering certified (t_5 > t_4 not certified)" in out


def test_nef_verify_stops_on_an_overlapping_ordering_pair(monkeypatch, capsys):
    # N_4's enclosure widened down to N_5's lower end: t_4 > t_5 is neither
    # proven nor refuted, so the premise is undecided (exit 3), not failed
    eigen = spectral.eigensystem(60)
    values = list(eigen.witness_values)  # D, B, N_1..N_10
    values[5] = (values[6][0], values[5][1])
    monkeypatch.setattr(spectral, "eigensystem", lambda digits: eigen._replace(witness_values=tuple(values)))
    code, out, err = run_cli(capsys, "nef-verify")
    assert (code, out) == (3, "")
    assert err == "precision too low to decide a certificate: t_4 > t_5 not certified: enclosures overlap\n"


def test_corrupted_adjugate_column_fails_self_intersection(monkeypatch, capsys):
    from voljump import report
    from voljump.polynomials import IntPoly

    eigen = report.eigensystem(60)
    column = list(eigen.adjugate_column)
    column[4] = IntPoly((column[4].coeffs[0] + 1,) + column[4].coeffs[1:])
    corrupted = eigen._replace(adjugate_column=tuple(column))
    monkeypatch.setattr(report, "eigensystem", lambda digits: corrupted)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: dominant class has self-intersection zero" in err
    assert "[FAIL] dominant class pairs to zero with the canonical class" in out
    assert out.splitlines()[-1] == "verdict: fail"


def test_orbit_of_a_non_curve_class_fails_the_self_intersection(monkeypatch, capsys):
    from voljump import report

    # H - E1 - E2: self-intersection -1 and canonical degree -1 at every step
    monkeypatch.setattr(report, "LINE", (1, -1, -1) + (0,) * 8)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: orbit self-intersections all -2" in err
    lines = out.splitlines()
    assert (
        "[PASS] orbit classes pairwise distinct ((T^n l).v = lambda^-n (l.v) with "
        "l.v = 0.107691618505... != 0 and lambda > 1, for every n)"
    ) in lines
    assert "[FAIL] orbit self-intersections all -2 ((T^n l)^2 = l^2 = -1 for every n)" in lines
    assert "[FAIL] orbit canonical degrees all 0 ((T^n l).K = l.K = -1 for every n)" in lines
    assert lines[-1] == "verdict: fail"


def test_an_orbit_of_the_canonical_class_leaves_distinctness_undecided(monkeypatch, capsys):
    from voljump import report
    from voljump.lattice import CANONICAL, canonical_class
    from voljump.orbit import DistinctnessResult, verify_distinct

    # T K = K, so the orbit of K is one class; K.v = 0 exactly, so no
    # enclosure of l.v excludes 0, at any precision, and s | sum g_i K_i a_i
    # decides it: the line fails, it is not left undecided
    assert verify_distinct(canonical_class(), 2) == DistinctnessResult(False, (0, 1))
    monkeypatch.setattr(report, "LINE", CANONICAL)
    for digits in ("20", "60"):
        code, out, err = run_cli(capsys, "verify", "--precision-digits", digits)
        assert code == 1
        assert "failed: orbit classes pairwise distinct" in err
        line = "[FAIL] orbit classes pairwise distinct (sum g_i l_i a_i = 0 at lambda: l.v = 0)"
        assert line in out.splitlines()


def test_a_straddling_l_v_that_is_not_zero_leaves_distinctness_undecided(monkeypatch, capsys):
    from voljump import report

    # r_1's enclosure widened by 1 each way: l.v = 1 - r_1 - r_2 - r_3 = -0.30...
    # is enclosed in about [-1.3, 0.7], while sum g_i l_i a_i != 0 mod s
    eigen = report.eigensystem(60)
    (lo, hi), one = eigen.eigenvector[0], 1 << eigen.grid_bits
    straddling = eigen._replace(eigenvector=((lo - one, hi + one),) + eigen.eigenvector[1:])
    monkeypatch.setattr(report, "eigensystem", lambda digits: straddling)
    code, out, err = run_cli(capsys, "verify")
    assert (code, out) == (3, "")
    assert err == (
        "precision too low to decide a certificate: "
        "orbit classes pairwise distinct: l.v not certified nonzero\n"
    )


def test_a_failed_eigen_relation_fails_the_lines_that_rest_on_it(monkeypatch, capsys):
    """a_4 + s leaves a(lambda), the eigenvector and the witness as they are,
    and only row 4 of (xI - T) a = p e_0 fails: the relation line names it,
    and the two lines that rest on T v = lambda v fail by their premise; the
    oracle, whose line is decided by that premise, is never run."""
    from voljump import report
    from voljump.polynomials import combine

    composite, s = composite_T(), spectral.eigensystem(60).off_unit_factor
    kernel = spectral.faddeev_leverrier

    def corrupted(m):
        p, column = kernel(m)
        if m == composite:
            column = (*column[:4], combine((1, 1), (column[4], s)), *column[5:])
        return p, column

    def forbidden(eigen):
        raise AssertionError("the oracle ran though its line fails by its premise")

    monkeypatch.setattr(spectral, "faddeev_leverrier", corrupted)
    monkeypatch.setattr(report, "select_orientation", forbidden)
    clear_run_caches()
    try:
        code, out, err = run_cli(capsys, "verify")
    finally:
        clear_run_caches()
    assert code == 1
    relation = "eigen-relation (xI - T) a = p e_0 holds as polynomials"
    assert [line for line in out.splitlines() if not line.startswith("[PASS]")] == [
        f"[FAIL] {relation} (row 4 fails)",
        f"[FAIL] orientation oracle selects the fixed composite (premise failed: {relation})",
        f"[FAIL] orbit classes pairwise distinct (premise failed: {relation})",
        "verdict: fail",
    ]


def test_refinement_budget_flag_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--refinement-budget", "3"])
    assert excinfo.value.code == 2
    assert "--refinement-budget" in capsys.readouterr().err


def test_non_isometric_transform_fails_the_form_certificate(bind_transform, capsys):
    from voljump.transform import LatticeIsometry

    rows = [list(r) for r in composite_T().rows]
    # one unit moved from E2 to E1 in the E2 row: K is still fixed (K_1 = K_2),
    # the form is not, and the eigensystem still certifies
    rows[2][1] += 1
    rows[2][2] -= 1
    bind_transform(LatticeIsometry(rows))
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: composite map preserves the intersection form" in err
    lines = out.splitlines()
    assert "[FAIL] composite map preserves the intersection form ((M^T G M - G)[0][1] = 1)" in lines
    assert "[PASS] composite map fixes the canonical class" in lines
    assert lines[-1] == "verdict: fail"


@pytest.mark.parametrize("command", ["verify", "nef-verify"])
@pytest.mark.parametrize(
    "matrix, message",
    [
        (
            transform.exceptional_shift(3) @ transform.cremona_isometry(1, 2, 3),
            "line component outside (0, 1): B(lambda) < 0 < D(lambda)",
        ),
        (transform.exceptional_shift(1), "no real root greater than 1"),
    ],
    ids=["beta-outside", "no-lambda"],
)
def test_lambda_above_1_and_beta_in_0_1_stop_the_run_where_they_fail(
    bind_transform, capsys, command, matrix, message
):
    """No line restates lambda > 1 (`dominant_bracket` isolates it in (1, top))
    or 0 < beta < 1 (the witness stage's shared sign of D and B): a map
    without them stops there, before any line is printed."""
    bind_transform(matrix)
    assert run_cli(capsys, command) == (1, "", f"certificate failure: {message}\n")


def test_a_failed_isometry_names_its_first_nonzero_residual_entry(monkeypatch, capsys):
    from voljump import report
    from voljump.transform import IsometryCheck

    residual = [[0] * 11 for _ in range(11)]
    residual[3][7] = residual[7][3] = -2
    failing = IsometryCheck(False, tuple(map(tuple, residual)))
    monkeypatch.setattr(report, "verify_isometry", lambda m: failing)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: composite map preserves the intersection form" in err
    assert "[FAIL] composite map preserves the intersection form ((M^T G M - G)[3][7] = -2)" in out.splitlines()


def test_shifted_reference_coefficient_fails_the_witness_certificate(monkeypatch, capsys):
    from voljump import reference

    shifted = (reference.WITNESS_MILLI[0] + 3,) + reference.WITNESS_MILLI[1:]
    # the oracle and the report read the reference data through one predicate
    monkeypatch.setattr(reference, "WITNESS_MILLI", shifted)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert (
        "[FAIL] witness coefficients match the reference decimals "
        "(coefficient off reference by up to 0.0026)"
    ) in lines
    # no reading of the composite matches the shifted reference either
    assert "failed: orientation oracle selects the fixed composite" in err
    assert lines[-1] == "verdict: fail"


def test_corrupted_line_numerator_fails_the_line_class_certificate(monkeypatch, capsys):
    from voljump import report
    from voljump.polynomials import IntPoly, combine
    from helpers import column_values

    eigen = report.eigensystem(60)
    d, b, *n = eigen.witness_polynomials
    # N_3 = -2 a_3 - B with a_3 + 1 in place of the line-index entry a_3
    n[2] = combine((1, -2), (n[2], IntPoly([1])))
    polys = (d, b, *n)
    corrupted = eigen._replace(
        witness_polynomials=polys,
        witness_values=tuple(column_values(polys, eigen.eigenvalue)),
    )
    monkeypatch.setattr(report, "eigensystem", lambda digits: corrupted)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "failed: degree-1 margins nonnegative" in err
    lines = out.splitlines()
    assert "[FAIL] degree-1 margins nonnegative (D - N1 - N2 - N3 != 0 as polynomials)" in lines
    assert any(line.startswith("[FAIL] square-sum identity certified") for line in lines)
    assert lines[-1] == "verdict: fail"


def test_each_data_command_prints_the_report_section(capsys):
    """`eigen`, `nef-table` and `orbit` print what the report holds, built by
    one section builder each: the eigen section whole, each table row as its
    `extreme_rows` entry, and the orbit records."""
    _, out, _ = run_cli(capsys, "report", "--orbit-horizon", "12")
    report = json.loads(out)
    _, out, _ = run_cli(capsys, "eigen", "--format", "json", "--tol-digits", "40")
    assert json.loads(out) == report["eigen"]
    _, out, _ = run_cli(capsys, "nef-table", "--format", "json", "--tol-digits", "40")
    table = json.loads(out)
    rows = {
        (row["d"], tuple(row["a"])): row
        for degree in report["nef"]["degrees"]
        for row in degree["extreme_rows"]
    }
    assert len(table) == len(rows) and all(row == rows[row["d"], tuple(row["a"])] for row in table)
    _, out, _ = run_cli(capsys, "orbit", "--format", "json", "--orbit-horizon", "12")
    orbit = json.loads(out)
    assert orbit["records"] == report["orbit"]["records"] and len(orbit["records"]) == 12
    assert orbit["seed"] == report["orbit"]["seed"]


#: The E1 coordinate negated: an isometry of the form that moves K.
NEGATE_E1 = transform.LatticeIsometry(
    [[-1 if i == j == 1 else int(i == j) for j in range(11)] for i in range(11)]
)


@pytest.mark.parametrize("digits", ["20", "60", "200"])
def test_a_map_that_moves_k_fails_the_k_and_cyclotomic_lines(bind_transform, capsys, digits):
    # det -1 makes k = 0, so s = p of degree 11 carries Phi_2 and Phi_6 beside the
    # Salem factor; v.v(lambda) = 0 with s not dividing v.v, decided by the
    # factor gcd(s, v.v mod s) and s over it, at every precision
    bind_transform(composite_T() @ NEGATE_E1)
    code, out, err = run_cli(capsys, "verify", "--precision-digits", digits)
    assert code == 1
    assert err.splitlines()[0] == "failed: composite map fixes the canonical class"
    lines = out.splitlines()
    assert "[FAIL] composite map fixes the canonical class" in lines
    assert "[FAIL] cyclotomic scan finds only the factor at n = 1 (factors: [(2, 1), (6, 1)])" in lines
    assert "[PASS] dominant class has self-intersection zero (sum g_i a_i^2 = 0 at lambda)" in lines
    assert lines[-1] == "verdict: fail"


def test_a_second_root_outside_the_circle_fails_its_line(monkeypatch, capsys):
    from voljump import report
    from voljump.polynomials import IntPoly

    # p and s times (x - 2): the facts at lambda hold, as x - 2 is clear of 0 there
    eigen = report.eigensystem(60)
    x_2 = IntPoly([-2, 1])
    mutated = eigen._replace(
        polynomial=eigen.polynomial * x_2, off_unit_factor=eigen.off_unit_factor * x_2
    )
    monkeypatch.setattr(report, "eigensystem", lambda digits: mutated)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    [line] = [line for line in lines if "exactly one root outside the unit circle" in line]
    assert line.startswith("[FAIL] exactly one root outside the unit circle (outside 2, inside 1, on circle 9;")
    assert "[PASS] dominant class has self-intersection zero (sum g_i a_i^2 = 0 at lambda)" in lines
    assert lines[-1] == "verdict: fail"
