"""Command-line interface: `voljump COMMAND [options]`.

Exit codes: 0 all certificates pass, 1 a certificate failed, 2 usage or
configuration error, 3 working precision too low to decide a certificate.

The parser reads the command table `COMMANDS`: each command's handler, help
line, output formats, the settings of `SETTINGS` it reads and its own
options.  Its flags are those settings, `--format`, `--out` and its own
options; any other flag is an unrecognized argument.  The parser casts each
value and checks it against the option's choices, so a format the command
does not list is a usage error; `main` builds the run's one `RunConfig` from
the values and checks its ranges.  An option is written `--opt VALUE`
or `--opt=VALUE`, by its name or any unique prefix of it; a repeated option
keeps its last value; `-h`/`--help` prints usage and options on stdout and
exits 0.  Every usage and configuration error goes through `_usage_error`:
usage and `voljump[ COMMAND]: error: <message>` on stderr, exit 2.  The
grammar is argparse's, without argparse: importing it and building its
parsers cost more than the nef pass, in every process.

Start-up is most of a command's run time, so each command imports the
modules it uses when it runs: `nef-verify` loads neither the orbit nor the
report module, and only the commands that print JSON or CSV load those.
"""

from __future__ import annotations

import gc
import io
import os
import sys

from .config import ConfigError, RunConfig
from .errors import CertificationError, PrecisionBudgetError


class Option:
    """`--name` followed by `nargs` words, each cast by `cast` and checked
    against `choices` if any; a flag (`nargs` 0) is True when given."""

    __slots__ = ("name", "metavar", "help", "nargs", "cast", "choices", "required", "default")

    def __init__(self, name, metavar, help, *, nargs=1, cast=str, choices=(), required=False,
                 default=None):
        self.name, self.metavar, self.help = name, metavar, help
        self.nargs, self.cast, self.choices = nargs, cast, choices
        self.required, self.default = required, default

    def spelling(self) -> str:
        return f"{self.name} {self.metavar}" if self.nargs else self.name

    def usage(self) -> str:
        return self.spelling() if self.required else f"[{self.spelling()}]"


HELP = Option("--help", None, "show this help message and exit", nargs=0)
#: The common options that set a `RunConfig` field, by that field.
SETTINGS = {
    "precision_digits": Option("--precision-digits", "N", "working precision (>= 20, default 60)",
                               cast=int),
    "orbit_horizon": Option("--orbit-horizon", "N", "orbit length (default 50)", cast=int),
    "output_format": Option("--format", "FMT", "output format"),  # each command lists its own
    "table_digits": Option("--tol-digits", "N", "decimal digits for displayed values", cast=int),
}
COMMON = (*SETTINGS.values(), Option("--out", "PATH", "write output to a file instead of stdout"))


class Command:
    """A `COMMANDS` entry: `run(args, cfg)` returns the output text and exit
    code in `cfg.output_format`, one of `formats` (the first by default);
    `keys` name the settings it reads besides the format; `options` are the
    common ones for those keys, `--format` choosing among `formats`, and
    `--out`, then its own."""

    __slots__ = ("run", "help", "options")

    def __init__(self, run, help, formats: tuple[str, ...], keys: tuple[str, ...],
                 *options: Option):
        self.run, self.help, names = run, help, keys + ("format", "out")
        self.options = tuple(
            Option(o.name, o.metavar, f"{o.help}: {', '.join(formats)}", choices=formats,
                   default=formats[0]) if o.name == "--format" else o
            for o in COMMON if o.name[2:] in names
        ) + options


def _prog(command: str | None) -> str:
    return f"voljump {command}" if command else "voljump"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: voljump [-h] COMMAND ..."
    options = COMMANDS[command].options
    return f"usage: {_prog(command)} [-h] " + " ".join(o.usage() for o in options)


def _usage_error(command: str | None, message: str):
    """Print usage and the error on stderr; exit 2."""
    sys.stderr.write(f"{_usage(command)}\n{_prog(command)}: error: {message}\n")
    raise SystemExit(2)


def _print_help(command: str | None):
    """Usage, description and the commands or options on stdout; exit 0."""
    options = [("-h, --help", HELP.help)]
    if command is None:
        description = "Certified lattice computations behind a volume-jumping divisor class."
        sections = {"commands": [(name, c.help) for name, c in COMMANDS.items()]}
    else:
        description = COMMANDS[command].help
        options += [(o.spelling(), o.help) for o in COMMANDS[command].options]
        sections = {}
    sections["options"] = options
    width = 2 + max(len(name) for entries in sections.values() for name, _ in entries)
    lines = [_usage(command), "", description]
    for title, entries in sections.items():
        lines += ["", f"{title}:"] + [f"  {name:<{width}}{text}" for name, text in entries]
    _emit(command, "\n".join(lines) + "\n", None)
    raise SystemExit(0)


def _is_option(word: str) -> bool:
    """Whether a word names an option rather than a value: it starts with
    '-' and is neither '-' nor a negative number nor contains a space."""
    return (
        len(word) > 1 and word[0] == "-" and " " not in word
        and not word[1:].replace(".", "", 1).isdecimal()
    )


def _parse_args(argv: list[str]) -> tuple[str, dict]:
    """The command and its option values, keyed by option name without
    `--`; options not given hold their defaults (the command's first format
    for `--format`, None for the other common ones)."""
    command, options, values, unknown = None, (HELP,), {}, []
    i = 0
    while i < len(argv):
        word = argv[i]
        i += 1
        if not _is_option(word):
            if command is not None:
                unknown.append(word)
            elif word in COMMANDS:
                command, options = word, (HELP,) + COMMANDS[word].options
                values = {o.name[2:]: o.default for o in options[1:]}
            else:
                _usage_error(None, f"unknown command {word!r} (choose from {', '.join(COMMANDS)})")
            continue
        name, eq, inline = word.partition("=")
        name = "--help" if name == "-h" else name
        found = [o for o in options if o.name == name] or [
            o for o in options if name.startswith("--") and len(name) > 2 and o.name.startswith(name)
        ]
        if not found:
            unknown.append(word)
            continue
        if len(found) > 1:
            _usage_error(command, f"ambiguous option: {name} could match "
                        + ", ".join(o.name for o in found))
        [option] = found
        if eq:
            given = [inline]
        else:
            given = argv[i : i + option.nargs]
            given = given[: next((k for k, w in enumerate(given) if _is_option(w)), len(given))]
            i += len(given)
        if len(given) != option.nargs:
            expected = f"expected {option.nargs} argument{'s' if option.nargs > 1 else ''}"
            _usage_error(command, f"argument {option.name}: "
                        + (expected if option.nargs else f"takes no value, got {inline!r}"))
        if option is HELP:
            _print_help(command)
        try:
            cast = [option.cast(w) for w in given]
        except ValueError:
            _usage_error(command, f"argument {option.name}: "
                        f"invalid {option.cast.__name__} value in {' '.join(given)!r}")
        if option.choices and cast[0] not in option.choices:
            _usage_error(command, f"argument {option.name}: invalid choice {cast[0]!r} "
                        f"(choose from {', '.join(option.choices)})")
        values[option.name[2:]] = cast if option.nargs > 1 else cast[0] if cast else True
    if command is None:
        _usage_error(None, "the following arguments are required: COMMAND")
    missing = [o.name for o in options if o.required and values[o.name[2:]] is None]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _usage_error(command, f"unrecognized arguments: {' '.join(unknown)}")
    return command, values


def _emit(command: str | None, text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout and flush it: failing is a usage error."""
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w") as handle:
                handle.write(text)
    except OSError as err:
        _usage_error(command, f"cannot write {out or 'stdout'}: {err.strerror or err}")


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
    lines = [f"lambda = {decimal_string(*eigen.dominant_value.midpoint.as_integer_ratio(), digits)}"]
    for i, e in enumerate(eigen.r(), start=1):
        lines.append(f"r{i:<2} = {decimal_string(*e.midpoint.as_integer_ratio(), digits)}")
    lines.append(f"beta = {decimal_string(*eigen.line_component.midpoint.as_integer_ratio(), digits)}")
    for i, e in enumerate(eigen.t(), start=1):
        lines.append(f"t{i:<2} = {decimal_string(*e.midpoint.as_integer_ratio(), digits)}")
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
    fmt = cfg.output_format
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
        + [decimal_string(*r.margin.midpoint.as_integer_ratio(), digits)]
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

    d, extreme = args["d"], args["extreme"]
    if not 3 <= d <= 6:
        raise ConfigError(f"--d must be in 3..6, got {d}")
    candidates = extreme_candidates(d) if extreme else enumerate_feasible(d)
    if cfg.output_format == "json":
        return _json_text([{"d": c.degree, "a": list(c.mults)} for c in candidates]), 0
    if cfg.output_format == "csv":
        header = ["d"] + [f"a{i}" for i in range(1, 11)]
        rows = [[str(c.degree)] + [str(a) for a in c.mults] for c in candidates]
        return _csv_text(header, rows), 0
    lines = [" ".join(str(a) for a in c.mults) for c in candidates]
    lines.append(f"# {len(candidates)} candidates at degree {d}"
                 + (" (extreme only)" if extreme else ""))
    return "\n".join(lines) + "\n", 0


def cmd_orbit(args, cfg: RunConfig) -> tuple[str, int]:
    from .lattice import DivisorClass, canonical_class, standard_line
    from .orbit import OrbitRecord, distinctness, walk
    from .transform import composite_T

    coeffs = args["coeffs"]
    if (args["seed"] == "custom") != (coeffs is not None):
        raise ConfigError(
            "--seed custom requires --coeffs with 11 integers, and --coeffs requires --seed custom"
        )
    if coeffs is not None:
        seed = DivisorClass(coeffs)
    else:
        seed = {"lbar": standard_line, "K": canonical_class}[args["seed"]]()
    count = cfg.orbit_horizon
    vector, scale = seed.integral_multiple()
    vectors = walk(composite_T(), vector, count)
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


PRECISION, HORIZON, TABLE = ("precision-digits",), ("orbit-horizon",), ("tol-digits",)

COMMANDS = {
    "dump-matrix": Command(
        cmd_dump_matrix, "print the composite map as 11x11 integers", ("text", "json"), ()
    ),
    "charpoly": Command(
        cmd_charpoly, "characteristic polynomial, unit-root factor, cyclotomic scan",
        ("text", "json"), PRECISION,
    ),
    "eigen": Command(
        cmd_eigen, "dominant eigenvalue and derived certified data", ("text", "json"),
        PRECISION + TABLE,
    ),
    "nef-table": Command(
        cmd_nef_table, "extreme-candidate margin table", ("md", "csv", "json"), PRECISION + TABLE
    ),
    "nef-verify": Command(
        cmd_nef_verify, "run the nef certificates; exit 0 iff all pass", ("text",), PRECISION
    ),
    "enumerate": Command(
        cmd_enumerate,
        "feasible candidate curves for one degree",
        ("text", "json", "csv"),
        (),
        Option("--d", "D", "degree, 3..6", cast=int, required=True),
        Option("--extreme", None, "only extreme candidates", nargs=0, default=False),
    ),
    "orbit": Command(
        cmd_orbit,
        "orbit of a class under the composite map",
        ("text", "json"),
        HORIZON,
        Option("--seed", "{lbar,K,custom}", "seed class (default lbar)",
               choices=("lbar", "K", "custom"), default="lbar"),
        Option("--coeffs", "C1 ... C11", "11 integers for --seed custom", nargs=11, cast=int),
    ),
    "verify": Command(
        cmd_verify, "run every certificate; exit 0 iff all pass", ("text",), PRECISION + HORIZON
    ),
    "report": Command(
        cmd_report, "emit the complete JSON artifact", ("json",), PRECISION + HORIZON
    ),
}


def main(argv: list[str] | None = None) -> int:
    command, args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        given = {field: args.get(option.name[2:]) for field, option in SETTINGS.items()}
        cfg = RunConfig(**{field: value for field, value in given.items() if value is not None})
        cfg.validate()
        text, code = COMMANDS[command].run(args, cfg)
    except ConfigError as err:
        _usage_error(command, str(err))
    except PrecisionBudgetError as err:
        print(f"precision too low to decide a certificate: {err}", file=sys.stderr)
        return 3
    except CertificationError as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 1
    _emit(command, text, args["out"])
    return code


def entry() -> int:
    """`main()` as a process: the collector off, and `os._exit` with main's or its
    `SystemExit`'s code once stderr flushes (`_emit` flushed stdout, or failed to)."""
    gc.disable()
    try:
        code = main()
    except SystemExit as stop:
        code = stop.code
    try:
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
