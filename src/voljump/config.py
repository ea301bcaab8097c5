"""Run settings: the values a command's flags set, their defaults and range checks."""

from __future__ import annotations

#: Floor for the working precision.  The tightest margin decided anywhere is
#: about 0.045; twenty digits leave a wide safety band below the default 60.
MIN_PRECISION_DIGITS = 20


class ConfigError(ValueError):
    """Invalid configuration value (rejected before any computation starts)."""


class RunConfig:
    """Run settings: the CLI builds one from the flags a command was given."""

    __slots__ = ("precision_digits", "orbit_horizon", "output_format", "table_digits")

    def __init__(
        self,
        precision_digits: int = 60,
        orbit_horizon: int = 50,
        output_format: str | None = None,  # the CLI passes the command's format
        table_digits: int | None = None,  # None: the command's own default
    ):
        self.precision_digits = precision_digits
        self.orbit_horizon = orbit_horizon
        self.output_format = output_format
        self.table_digits = table_digits

    def validate(self) -> None:
        if self.precision_digits < MIN_PRECISION_DIGITS:
            raise ConfigError(
                f"precision-digits must be at least {MIN_PRECISION_DIGITS}, "
                f"got {self.precision_digits}"
            )
        if self.orbit_horizon < 1:
            raise ConfigError("orbit-horizon must be positive")
        if self.table_digits is not None and self.table_digits < 1:
            raise ConfigError("tol-digits must be positive")
