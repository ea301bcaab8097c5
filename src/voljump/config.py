"""Run configuration: defaults, a flat key=value config file, environment hook."""

from __future__ import annotations

import os

#: Environment variable naming a default config file.
CONFIG_ENV_VAR = "VOLJUMP_CONFIG"

#: Floor for the working precision.  The tightest margin decided anywhere is
#: about 0.045; twenty digits leave a wide safety band below the default 60.
MIN_PRECISION_DIGITS = 20

OUTPUT_FORMATS = ("text", "json", "csv", "md")


class ConfigError(ValueError):
    """Invalid configuration value (rejected before any computation starts)."""


class RunConfig:
    """Run settings; mutable, since `resolve_config` overlays them field by field."""

    __slots__ = ("precision_digits", "orbit_horizon", "output_format", "table_digits")

    def __init__(
        self,
        precision_digits: int = 60,
        orbit_horizon: int = 50,
        output_format: str | None = None,  # None: the command's first format
        table_digits: int | None = None,  # None: the command's own default
    ):
        self.precision_digits = precision_digits
        self.orbit_horizon = orbit_horizon
        self.output_format = output_format
        self.table_digits = table_digits

    def validate(self, formats: tuple[str, ...] = OUTPUT_FORMATS) -> None:
        if self.precision_digits < MIN_PRECISION_DIGITS:
            raise ConfigError(
                f"precision-digits must be at least {MIN_PRECISION_DIGITS}, "
                f"got {self.precision_digits}"
            )
        if self.orbit_horizon < 1:
            raise ConfigError("orbit-horizon must be positive")
        if self.output_format is not None and self.output_format not in formats:
            raise ConfigError(
                f"format: invalid choice {self.output_format!r} (choose from {', '.join(formats)})"
            )
        if self.table_digits is not None and self.table_digits < 1:
            raise ConfigError("tol-digits must be positive")


#: Config-file keys, which are also the common flags (`--key VALUE`): the
#: RunConfig field each sets, the cast from text, and the flag's metavar and
#: help line.
KEY_FIELDS = {
    "precision-digits": ("precision_digits", int, "N", "working precision (>= 20, default 60)"),
    "orbit-horizon": ("orbit_horizon", int, "N", "orbit length (default 50)"),
    "format": ("output_format", str, "FMT", "output format"),  # each command lists its own
    "tol-digits": ("table_digits", int, "N", "decimal digits for displayed values"),
}


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEY_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def resolve_config(
    flags: dict[str, str],
    keys: tuple[str, ...],
    config_path: str | None = None,
    formats: tuple[str, ...] = OUTPUT_FORMATS,
) -> RunConfig:
    """Defaults, overlaid by the config file's values for `keys`, the keys
    the command reads (the file from the flag or the environment; any other
    key of the file is ignored), then by the flags; `flags` maps config keys
    to text, which is cast and validated as the file's values are.  The
    format must be one of `formats`, the first of which is the default."""
    cfg = RunConfig()
    path = config_path
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    read = read_config_file(path) if path is not None else {}
    for values in ({k: v for k, v in read.items() if k in keys}, flags):
        for key, raw in values.items():
            field, cast = KEY_FIELDS[key][:2]
            try:
                setattr(cfg, field, cast(raw))
            except ValueError:
                raise ConfigError(f"{key}: invalid {cast.__name__} value {raw!r}") from None
    cfg.validate(formats)
    if cfg.output_format is None:
        cfg.output_format = formats[0]
    return cfg
