import pytest

from voljump import cli
from voljump.config import ConfigError, RunConfig

RANGE_ERRORS = {
    "precision_digits": "precision-digits must be at least 20, got 19",
    "orbit_horizon": "orbit-horizon must be positive",
    "table_digits": "tol-digits must be positive",
}


def test_defaults_are_valid():
    cfg = RunConfig()
    cfg.validate()
    assert (cfg.precision_digits, cfg.orbit_horizon) == (60, 50)
    assert (cfg.output_format, cfg.table_digits) == (None, None)


@pytest.mark.parametrize(
    "field,value", [("precision_digits", 19), ("orbit_horizon", 0), ("table_digits", 0)]
)
def test_validation_rejects_bad_values(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"^{RANGE_ERRORS[field]}$"):
        cfg.validate()


def test_format_defaults_to_the_first_of_the_commands_formats(monkeypatch):
    # the flags' values reach the command as one RunConfig
    seen = []

    def run(args, cfg):
        seen.append((cfg.output_format, cfg.precision_digits, cfg.orbit_horizon, cfg.table_digits))
        return "", 0

    monkeypatch.setattr(cli.COMMANDS["nef-table"], "run", run)
    assert cli.main(["nef-table"]) == 0
    assert cli.main(["nef-table", "--format", "csv", "--prec", "30", "--tol-digits", "4"]) == 0
    assert seen == [("md", 60, 50, None), ("csv", 30, 50, 4)]


def test_resolved_config_is_validated(capsys):
    for argv, field in [
        (["verify", "--precision-digits", "19"], "precision_digits"),
        (["orbit", "--orbit-horizon", "0"], "orbit_horizon"),
        (["eigen", "--tol-digits", "0"], "table_digits"),
    ]:
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"voljump {argv[0]}: error: {RANGE_ERRORS[field]}"
