"""Run configuration: defaults, a flat key=value config file, environment hook."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

#: Environment variable naming a default config file.
CONFIG_ENV_VAR = "VOLJUMP_CONFIG"

#: Floor for the working precision.  The tightest margin decided anywhere is
#: about 0.045; twenty digits leave a wide safety band below the default 60.
MIN_PRECISION_DIGITS = 20

OUTPUT_FORMATS = ("text", "json", "csv", "md")


class ConfigError(ValueError):
    """Invalid configuration value (rejected before any computation starts)."""


@dataclass
class RunConfig:
    precision_digits: int = 60
    orbit_horizon: int = 50
    output_format: str = "text"
    table_digits: int = 3

    def validate(self) -> None:
        if self.precision_digits < MIN_PRECISION_DIGITS:
            raise ConfigError(
                f"precision-digits must be at least {MIN_PRECISION_DIGITS}, "
                f"got {self.precision_digits}"
            )
        if self.orbit_horizon < 1:
            raise ConfigError("orbit-horizon must be positive")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if self.table_digits < 1:
            raise ConfigError("tol-digits must be positive")


#: config-file/flag keys mapped to RunConfig fields.
_KEY_FIELDS = {
    "precision-digits": ("precision_digits", int),
    "orbit-horizon": ("orbit_horizon", int),
    "format": ("output_format", str),
    "tol-digits": ("table_digits", int),
}


def read_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def resolve_config(
    overrides: dict[str, object], config_path: Path | None = None
) -> RunConfig:
    """Defaults, overlaid by the config file (flag or environment), then flags."""
    cfg = RunConfig()
    path = config_path
    if path is None:
        env = os.environ.get(CONFIG_ENV_VAR)
        if env:
            path = Path(env)
    if path is not None:
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for key, raw in read_config_file(path).items():
            field, cast = _KEY_FIELDS[key]
            try:
                setattr(cfg, field, cast(raw))
            except ValueError as err:
                raise ConfigError(f"config key {key}: {err}") from err
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg
