"""Start-up footprint, and the semantics of the record and value types.

Start-up is most of a command's run time.  Three guards keep it small: the CLI
module loads no `dataclasses` (which pulls in `inspect`, `ast` and `dis`),
and `nef-verify` loads neither the orbit and report modules nor the CSV and
JSON writers it never uses, and `charpoly` loads none of the report, orbit
and nef modules.  They compare module sets of fresh interpreters, never
times.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from voljump.config import RunConfig
from voljump.intervals import ClassEnclosure, RealEnclosure
from voljump.lattice import DivisorClass, standard_line
from voljump.nefcheck import CandidateCurve, NefReport
from voljump.polynomials import IntPoly
from voljump.transform import LatticeIsometry

SRC = Path(__file__).resolve().parent.parent / "src"


def new_modules(statement: str, *argv: str) -> set[str]:
    """Modules a fresh interpreter loads while it runs `statement` with
    `argv`, beyond those it loaded before (site hooks may load some)."""
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
        [sys.executable, "-c", probe, *argv],
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
    assert NefReport(*[None] * (len(NefReport._fields) - 1)).checks == ()
