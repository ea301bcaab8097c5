"""Command-line interface.

Exit codes: 0 all certificates pass, 1 a certificate failed, 2 usage or
configuration error, 3 working precision too low to decide a certificate.

Start-up is most of a command's run time, so each command imports the
modules it uses when it runs: `nef-verify` loads neither the orbit nor the
report module, and only the commands that print JSON or CSV load those.
"""

from __future__ import annotations

import argparse
import io
import sys

from .config import ConfigError, OUTPUT_FORMATS, RunConfig, resolve_config
from .errors import CertificationError, PrecisionBudgetError


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-digits", type=int, metavar="N", help="working precision (>= 20, default 60)")
    common.add_argument("--orbit-horizon", type=int, metavar="N", help="orbit length (default 50)")
    common.add_argument("--format", dest="output_format", choices=OUTPUT_FORMATS, help="output format")
    common.add_argument("--tol-digits", type=int, metavar="N", help="decimal digits for displayed values")
    common.add_argument("--config", metavar="PATH", help="key=value config file (default: $VOLJUMP_CONFIG)")
    common.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="voljump",
        description="Certified lattice computations behind a volume-jumping divisor class.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("dump-matrix", parents=[common], help="print the composite map as 11x11 integers")
    sub.add_parser("charpoly", parents=[common], help="characteristic polynomial, unit-root factor, cyclotomic scan")
    sub.add_parser("eigen", parents=[common], help="dominant eigenvalue and derived certified data")
    sub.add_parser("nef-table", parents=[common], help="extreme-candidate margin table (md, csv or json)")
    sub.add_parser("nef-verify", parents=[common], help="run the nef certificates; exit 0 iff all pass")
    p_enum = sub.add_parser("enumerate", parents=[common], help="feasible candidate curves for one degree")
    p_enum.add_argument("--d", type=int, required=True, metavar="D", help="degree, 3..6")
    p_enum.add_argument("--extreme", action="store_true", help="only extreme candidates")
    p_orbit = sub.add_parser("orbit", parents=[common], help="orbit of a class under the composite map")
    p_orbit.add_argument("--seed", choices=("lbar", "K", "custom"), default="lbar")
    p_orbit.add_argument("--coeffs", type=int, nargs=11, metavar="C", help="11 integers for --seed custom")
    sub.add_parser("verify", parents=[common], help="run every certificate; exit 0 iff all pass")
    sub.add_parser("report", parents=[common], help="emit the complete JSON artifact")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _json_text(payload, indent: int | None = 2) -> str:
    import json

    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _certificate_text(checks: tuple) -> tuple[str, int]:
    """One [PASS]/[FAIL] line per certificate and the verdict; exit 1 on a
    failure, whose first name also goes to stderr."""
    lines = [
        f"[{'PASS' if c.passed else 'FAIL'}] {c.name}" + (f" ({c.detail})" if c.detail else "")
        for c in checks
    ]
    failed = [c.name for c in checks if not c.passed]
    lines.append(f"verdict: {'fail' if failed else 'pass'}")
    if failed:
        print(f"failed: {failed[0]}", file=sys.stderr)
    return "\n".join(lines) + "\n", 1 if failed else 0


def cmd_dump_matrix(args, cfg: RunConfig) -> tuple[str, int]:
    from .transform import composite_T

    t = composite_T()
    if cfg.output_format == "json":
        return _json_text([list(r) for r in t.rows], indent=None), 0
    width = max(len(str(x)) for row in t.rows for x in row)
    lines = ["  ".join(str(x).rjust(width) for x in row) for row in t.rows]
    return "\n".join(lines) + "\n", 0


def cmd_charpoly(args, cfg: RunConfig) -> tuple[str, int]:
    from .spectral import CharpolyFacts, eigensystem

    facts = CharpolyFacts.of(eigensystem(cfg.precision_digits))
    if cfg.output_format == "json":
        return _json_text(facts.to_json()), 0
    p, circle = facts.polynomial, facts.circle
    lines = [
        f"characteristic polynomial: {p}",
        f"coefficients (ascending): {list(p.coeffs)}",
        f"factorization: (x - 1)^{facts.unit_root_multiplicity} * ({facts.off_unit_factor})",
        f"cyclotomic factors (index, multiplicity): {facts.cyclotomic}",
        f"roots outside/inside/on the unit circle: "
        f"{circle.outside}/{circle.inside}/{circle.on_circle}",
    ]
    return "\n".join(lines) + "\n", 0


def cmd_eigen(args, cfg: RunConfig) -> tuple[str, int]:
    from .intervals import decimal_string, enclosure_json
    from .spectral import eigensystem

    digits = cfg.table_digits or 30
    eigen = eigensystem(cfg.precision_digits)
    if cfg.output_format == "json":
        payload = {
            "lambda": enclosure_json(eigen.dominant_value, digits),
            "r": [enclosure_json(e, digits) for e in eigen.r()],
            "beta": enclosure_json(eigen.line_component, digits),
            "t": [enclosure_json(e, digits) for e in eigen.t()],
        }
        return _json_text(payload), 0
    lines = [f"lambda = {decimal_string(eigen.dominant_value.midpoint, digits)}"]
    for i, e in enumerate(eigen.r(), start=1):
        lines.append(f"r{i:<2} = {decimal_string(e.midpoint, digits)}")
    lines.append(f"beta = {decimal_string(eigen.line_component.midpoint, digits)}")
    for i, e in enumerate(eigen.t(), start=1):
        lines.append(f"t{i:<2} = {decimal_string(e.midpoint, digits)}")
    return "\n".join(lines) + "\n", 0


def _table_rows(cfg: RunConfig) -> list:
    """The extreme rows of degrees 3..6 with the margins the nef pass decided."""
    from .nefcheck import full_report
    from .spectral import eigensystem

    summaries = full_report(eigensystem(cfg.precision_digits)).degrees
    rows = [r for s in summaries for r in s.extreme_rows]
    rows.sort(key=lambda r: (r.candidate.degree, -r.margin.midpoint, r.candidate.mults))
    return rows


def cmd_nef_table(args, cfg: RunConfig) -> tuple[str, int]:
    from .intervals import decimal_string, enclosure_json

    digits = cfg.table_digits or 3
    rows = _table_rows(cfg)
    fmt = cfg.output_format if cfg.output_format != "text" else "md"
    margin_column = "margin_midpoint" if fmt == "csv" else "margin"
    header = ["d"] + [f"a{i}" for i in range(1, 11)] + [margin_column]
    if fmt == "json":
        payload = [
            {
                "d": r.candidate.degree,
                "a": list(r.candidate.mults),
                "margin": enclosure_json(r.margin, digits),
            }
            for r in rows
        ]
        return _json_text(payload), 0
    table = [
        [str(r.candidate.degree)]
        + [str(a) for a in r.candidate.mults]
        + [decimal_string(r.margin.midpoint, digits)]
        for r in rows
    ]
    if fmt == "csv":
        # the column name carries the note: values are interval midpoints
        return _csv_text(header, table), 0
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in table)
    lines.append("")
    lines.append(f"margins are interval midpoints, {digits} decimals")
    return "\n".join(lines) + "\n", 0


def cmd_nef_verify(args, cfg: RunConfig) -> tuple[str, int]:
    from .nefcheck import full_report
    from .spectral import eigensystem

    return _certificate_text(full_report(eigensystem(cfg.precision_digits)).checks)


def cmd_enumerate(args, cfg: RunConfig) -> tuple[str, int]:
    from .nefcheck import enumerate_feasible, extreme_candidates

    if not 3 <= args.d <= 6:
        raise ConfigError(f"--d must be in 3..6, got {args.d}")
    candidates = extreme_candidates(args.d) if args.extreme else enumerate_feasible(args.d)
    if cfg.output_format == "json":
        return _json_text([{"d": c.degree, "a": list(c.mults)} for c in candidates]), 0
    if cfg.output_format == "csv":
        header = ["d"] + [f"a{i}" for i in range(1, 11)]
        rows = [[str(c.degree)] + [str(a) for a in c.mults] for c in candidates]
        return _csv_text(header, rows), 0
    lines = [" ".join(str(a) for a in c.mults) for c in candidates]
    lines.append(f"# {len(candidates)} candidates at degree {args.d}"
                 + (" (extreme only)" if args.extreme else ""))
    return "\n".join(lines) + "\n", 0


def cmd_orbit(args, cfg: RunConfig) -> tuple[str, int]:
    from .lattice import DivisorClass, canonical_class, standard_line
    from .orbit import OrbitRecord, distinctness, walk

    if (args.seed == "custom") != (args.coeffs is not None):
        raise ConfigError(
            "--seed custom requires --coeffs with 11 integers, and --coeffs requires --seed custom"
        )
    if args.coeffs is not None:
        seed = DivisorClass(args.coeffs)
    else:
        seed = {"lbar": standard_line, "K": canonical_class}[args.seed]()
    count = cfg.orbit_horizon
    vectors, scale = walk(seed, count)
    distinct = distinctness(vectors)
    records = [OrbitRecord.of(n, v, scale) for n, v in enumerate(vectors)]
    if cfg.output_format == "json":
        payload = {
            "seed": seed.to_json_array(),
            "count": count,
            "distinct": distinct.distinct,
            "collision": list(distinct.collision) if distinct.collision else None,
            "records": [
                {
                    "n": r.n,
                    "class": r.divisor.to_json_array(),
                    "self_intersection": str(r.self_intersection),
                    "canonical_degree": str(r.canonical_degree),
                }
                for r in records
            ],
        }
        return _json_text(payload), 0
    lines = []
    for r in records:
        coeffs = " ".join(str(c) for c in r.divisor.coeffs)
        lines.append(
            f"n={r.n:<3} [{coeffs}]  C^2={r.self_intersection}  C.K={r.canonical_degree}"
        )
    lines.append(
        f"distinct: {distinct.distinct}"
        + (f" (collision at {distinct.collision})" if distinct.collision else "")
    )
    return "\n".join(lines) + "\n", 0


def cmd_verify(args, cfg: RunConfig) -> tuple[str, int]:
    from .report import run_verification

    return _certificate_text(run_verification(cfg).certificates)


def cmd_report(args, cfg: RunConfig) -> tuple[str, int]:
    from .report import render_report_json, run_verification

    run = run_verification(cfg)
    return render_report_json(run), 0 if run.verdict else 1


COMMANDS = {
    "dump-matrix": cmd_dump_matrix,
    "charpoly": cmd_charpoly,
    "eigen": cmd_eigen,
    "nef-table": cmd_nef_table,
    "nef-verify": cmd_nef_verify,
    "enumerate": cmd_enumerate,
    "orbit": cmd_orbit,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(
            {
                "precision_digits": args.precision_digits,
                "orbit_horizon": args.orbit_horizon,
                "output_format": args.output_format,
                "table_digits": args.tol_digits,
            },
            config_path=args.config,
        )
    except ConfigError as err:
        parser.error(str(err))  # exits 2
    try:
        text, code = COMMANDS[args.command](args, cfg)
    except ConfigError as err:
        parser.error(str(err))
    except PrecisionBudgetError as err:
        print(f"precision too low to decide a certificate: {err}", file=sys.stderr)
        return 3
    except CertificationError as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 1
    try:
        _emit(text, args.out)
    except OSError as err:
        parser.error(f"cannot write {args.out or 'stdout'}: {err.strerror or err}")
    return code


if __name__ == "__main__":
    sys.exit(main())
