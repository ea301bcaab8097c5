"""The benchmark's workloads: what each op runs and what it must print.

Every op runs the real CLI at fixed arguments; the paper's construction is
the program's only input, so `--seed` varies the schedule and the
microbenchmark inputs, not these arguments.

The output checks test the paper's claims as each op printed them, not byte
equality with an earlier commit, so a documented removal of a certificate
line does not read as a failure.  Byte equality is required only between the
ops of one run (the report is deterministic).
"""

from __future__ import annotations

import json
import random

import jsonschema

DEEP_HORIZON = 400

#: CLI arguments of one op per workload (after `python -m voljump.cli`).
WORKLOADS = {
    # what users run: every certificate at the default config
    "verify": ("verify",),
    # the nef pass alone; bypasses the oracle, unit-circle count and orbit
    "nef": ("nef-verify",),
    # high precision and a long orbit: eigensystem, orbit walks and the
    # JSON render dominate
    "deep-report": (
        "report",
        "--precision-digits",
        "400",
        "--orbit-horizon",
        str(DEEP_HORIZON),
    ),
}

CHARPOLY_ASCENDING = [-1, 2, 0, -2, 1, 1, -1, -1, 2, 0, -2, 1]
ROOTS = {"outside_unit_circle": 1, "inside_unit_circle": 1, "on_unit_circle": 9}
REFERENCE_ROWS = {"total": 34, "matched": 34}
CANDIDATES_PER_DEGREE = [25, 62, 138, 293]


def verdict_problems(text: str) -> list[str]:
    """`verify` / `nef-verify` text: a pass verdict and no [FAIL] line."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[-1] != "verdict: pass":
        problems.append("last line is not 'verdict: pass'")
    failed = [line for line in lines if line.startswith("[FAIL]")]
    if failed:
        problems.append(f"{len(failed)} [FAIL] lines, first: {failed[0]}")
    return problems


def report_problems(text: str, schema: dict, horizon: int) -> list[str]:
    """`report` JSON: schema-valid, a pass verdict and the paper's facts."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"report is not JSON: {err}"]
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as err:
        return [f"report fails the schema: {err.message}"]
    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    expect("verdict", doc["verdict"], "pass")
    expect(
        "failed certificates",
        [c["name"] for c in doc["certificates"] if not c["passed"]],
        [],
    )
    charpoly = doc["charpoly"]
    expect("char poly", charpoly["coefficients_ascending"], CHARPOLY_ASCENDING)
    expect("root layout", charpoly["roots"], ROOTS)
    expect("cyclotomic indices", [n for n, _ in charpoly["cyclotomic_factors"]], [1])
    nef = doc["nef"]
    expect("reference rows", nef["reference_rows"], REFERENCE_ROWS)
    expect(
        "canonical candidates",
        [d["candidates"] for d in nef["degrees"]],
        CANDIDATES_PER_DEGREE,
    )
    orbit = doc["orbit"]
    expect("orbit distinct", orbit["distinct"], True)
    expect("orbit length", len(orbit["records"]), horizon)
    expect(
        "orbit classes with C^2 != -2 or C.K != 0",
        [
            r["n"]
            for r in orbit["records"]
            if (r["self_intersection"], r["canonical_degree"]) != ("-2/1", "0/1")
        ],
        [],
    )
    return problems


class OutputJudge:
    """Checks every op of one run; all ops of a run must print the same bytes."""

    def __init__(self, workload: str, schema: dict):
        self.workload = workload
        self.schema = schema
        self.first: str | None = None
        self.verdicts: dict[str, list[str]] = {}

    def problems(self, exit_code: int, text: str) -> list[str]:
        found = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
        if self.first is None:
            self.first = text
        elif text != self.first:
            found.append("output differs from the first op of the run")
        if text not in self.verdicts:
            if self.workload == "deep-report":
                self.verdicts[text] = report_problems(text, self.schema, DEEP_HORIZON)
            else:
                self.verdicts[text] = verdict_problems(text)
        return found + self.verdicts[text]


def schedule(rng: random.Random, kinds):
    """Endless blocks of `kinds`, each block shuffled by the seed's generator."""
    while True:
        block = list(kinds)
        rng.shuffle(block)
        yield from block
