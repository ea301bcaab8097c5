"""Start-up footprint, and the semantics of the record and value types.

Start-up is most of a command's run time.  Seven guards keep it small: the
CLI module loads no `dataclasses` (which pulls in `inspect`, `ast` and
`dis`) and no `pathlib`, `nef-verify` loads neither the orbit and report
modules nor the CSV and JSON writers it never uses, `charpoly` loads none of
the report, orbit and nef modules, neither importing the CLI nor running
`verify` or `nef-verify` loads an argument parser (`argparse`, `getopt`) or
the `gettext` and `locale` modules argparse pulls in, none of the three
loads `typing` (the record classes derive from `errors.Record`), and
neither `verify` nor `nef-verify` loads `fractions` with the `decimal`,
`numbers` and `re` it imports (the run path keeps integer numerators).
They compare module sets of fresh interpreters, never times.
"""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from voljump.config import RunConfig
from voljump.intervals import ClassEnclosure, RealEnclosure
from voljump.lattice import DivisorClass, standard_line
from voljump.nefcheck import CandidateCurve, CheckResult, MarginRow, NefReport
from voljump.orbit import DistinctnessResult
from voljump.polynomials import IntPoly
from voljump.transform import IsometryCheck, LatticeIsometry

SRC = Path(__file__).resolve().parent.parent / "src"


def new_modules(statement: str, *argv: str, flags: tuple[str, ...] = ()) -> set[str]:
    """Modules a fresh interpreter started with `flags` loads while it runs
    `statement` with `argv`, beyond those it loaded before (site hooks may
    load some)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "status = 0\n"
        f"{statement}\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "sys.exit(status)\n"
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_cli_import_loads_no_dataclasses_and_no_command_module():
    loaded = new_modules("import voljump.cli")
    assert not loaded & {"dataclasses", "inspect"}
    assert {m for m in loaded if m.startswith("voljump")} == {
        "voljump",
        "voljump.cli",
        "voljump.config",
        "voljump.errors",
    }


def test_cli_import_loads_no_pathlib():
    # -S skips the site hook, which may import pathlib on its own
    assert "pathlib" not in new_modules("import voljump.cli", flags=("-S",))


def test_nef_verify_loads_only_what_it_uses(tmp_path):
    out = tmp_path / "nef.txt"
    loaded = new_modules(
        "from voljump.cli import main\nstatus = main(sys.argv[1:])",
        "nef-verify",
        "--out",
        str(out),
    )
    assert out.read_text().splitlines()[-1] == "verdict: pass"
    assert "voljump.nefcheck" in loaded
    unused = {"voljump.report", "voljump.orbit", "csv", "json", "dataclasses", "inspect"}
    assert not loaded & unused


def test_charpoly_loads_no_report_orbit_or_nef_modules(tmp_path):
    out = tmp_path / "charpoly.txt"
    loaded = new_modules(
        "from voljump.cli import main\nstatus = main(sys.argv[1:])", "charpoly", "--out", str(out)
    )
    assert "roots outside/inside/on the unit circle: 1/1/9" in out.read_text()
    assert "voljump.spectral" in loaded
    assert not loaded & {"voljump.report", "voljump.orbit", "voljump.nefcheck"}


def command_modules(tmp_path, command: str | None, flags: tuple[str, ...] = ()) -> set[str]:
    """Modules `import voljump.cli` (command None) or a passing run of
    `command` loads in a fresh interpreter started with `flags`."""
    if command is None:
        return new_modules("import voljump.cli", flags=flags)
    out = tmp_path / "out.txt"
    loaded = new_modules(
        "from voljump.cli import main\nstatus = main(sys.argv[1:])",
        command,
        "--out",
        str(out),
        flags=flags,
    )
    assert out.read_text().splitlines()[-1] == "verdict: pass"
    return loaded


@pytest.mark.parametrize("command", [None, "verify", "nef-verify"])
def test_cli_loads_no_argument_parser_and_no_locale(tmp_path, command):
    loaded = command_modules(tmp_path, command)
    assert not loaded & {"argparse", "getopt", "gettext", "locale"}


@pytest.mark.parametrize("command", [None, "verify", "nef-verify"])
def test_cli_loads_no_typing(tmp_path, command):
    # -S skips the site hook, which may import typing on its own
    assert "typing" not in command_modules(tmp_path, command, flags=("-S",))


@pytest.mark.parametrize("command", ["verify", "nef-verify"])
def test_run_path_loads_no_fractions(tmp_path, command):
    # -S skips the site hook, which may import re on its own
    loaded = command_modules(tmp_path, command, flags=("-S",))
    assert not loaded & {"fractions", "decimal", "_decimal", "numbers", "re"}


def test_value_and_record_types_keep_their_semantics():
    # IntPoly is a cache key: equal polynomials hash equal
    assert IntPoly([1, 2, 0]) == IntPoly((1, 2))
    assert len({IntPoly([1, 2, 0]), IntPoly((1, 2))}) == 1
    interval = RealEnclosure(1, 2)
    assert type(interval.lo) is Fraction and type(interval.hi) is Fraction
    assert interval == RealEnclosure(Fraction(1), Fraction(2)) != (1, 2)
    with pytest.raises(ValueError, match="inverted interval"):
        RealEnclosure(2, 1)
    conic = CandidateCurve(2, [1] * 5 + [0] * 5)
    assert conic == CandidateCurve(2, (1, 1, 1, 1, 1, 0, 0, 0, 0, 0))
    assert hash(conic) == hash(CandidateCurve(2, conic.mults))
    assert conic != (2, conic.mults) and conic != CandidateCurve(3, conic.mults)
    line = standard_line()
    assert line == DivisorClass(line.coeffs) != line.coeffs
    assert ClassEnclosure.from_class(line) == ClassEnclosure.from_class(line)
    assert len({LatticeIsometry.identity(), LatticeIsometry.identity()}) == 1
    cfg = RunConfig()
    cfg.precision_digits = 80
    assert cfg.precision_digits == 80
    # records (errors.Record) are tuples with named fields
    check = CheckResult("c", True)
    assert CheckResult._fields == ("name", "passed", "detail")
    assert check == CheckResult(name="c", passed=True) == CheckResult("c", passed=True, detail="")
    assert check == ("c", True, "") and hash(check) == hash(("c", True, ""))
    name, passed, detail = check
    assert (name, passed, detail) == (check.name, check.passed, check.detail) == ("c", True, "")
    assert repr(check) == "CheckResult(name='c', passed=True, detail='')"
    # trailing defaults
    assert NefReport(*[None] * (len(NefReport._fields) - 1)).checks == ()
    assert MarginRow("candidate", "margin") == ("candidate", "margin", False)
    assert DistinctnessResult(True).collision is None
    assert IsometryCheck(ok=True).residual is None
    # a missing, extra, unknown or repeated field
    for args, kwargs in [(("c",), {}), (("c", True, "", "x"), {}), (("c", True), {"bogus": 1}),
                         (("c", True), {"name": "d"}), ((), {"passed": True})]:
        with pytest.raises(TypeError):
            CheckResult(*args, **kwargs)
    changed = check._replace(passed=False)
    assert type(changed) is CheckResult and changed == ("c", False, "") and check.passed
    with pytest.raises(ValueError):
        check._replace(bogus=1)
    # immutable, with no instance dict
    with pytest.raises(AttributeError):
        check.passed = False
    with pytest.raises(AttributeError):
        check.extra = 1
    assert not hasattr(check, "__dict__")
    assert copy.copy(check) == copy.deepcopy(check) == check
