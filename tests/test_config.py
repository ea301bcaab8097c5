import pytest

from voljump.config import (
    ConfigError,
    RunConfig,
    read_config_file,
    resolve_config,
)


def test_defaults_are_valid():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.precision_digits == 60
    assert cfg.orbit_horizon == 50


@pytest.mark.parametrize(
    "field,value",
    [
        ("precision_digits", 19),
        ("orbit_horizon", 0),
        ("output_format", "yaml"),
        ("table_digits", 0),
    ],
)
def test_validation_rejects_bad_values(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_format_defaults_to_the_first_of_the_commands_formats(monkeypatch):
    monkeypatch.delenv("VOLJUMP_CONFIG", raising=False)
    assert RunConfig().output_format is None
    assert resolve_config({}).output_format == "text"
    assert resolve_config({}, formats=("md", "csv")).output_format == "md"
    assert resolve_config({"format": "csv"}, formats=("md", "csv")).output_format == "csv"
    with pytest.raises(ConfigError, match=r"invalid choice 'json' \(choose from md, csv\)"):
        resolve_config({"format": "json"}, formats=("md", "csv"))


def test_read_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(
        "\n".join(
            [
                "# comment line",
                "precision-digits = 45",
                "orbit-horizon=33   # trailing comment",
                "format = json",
                "",
            ]
        )
    )
    assert read_config_file(path) == {
        "precision-digits": "45",
        "orbit-horizon": "33",
        "format": "json",
    }


def test_read_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("precision-digits\n")
    with pytest.raises(ConfigError):
        read_config_file(path)
    path.write_text("unknown-key = 1\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_resolve_precedence(tmp_path, monkeypatch):
    path = tmp_path / "cfg"
    path.write_text("precision-digits = 45\norbit-horizon = 33\n")
    monkeypatch.delenv("VOLJUMP_CONFIG", raising=False)
    # file only
    cfg = resolve_config({}, config_path=path)
    assert cfg.precision_digits == 45 and cfg.orbit_horizon == 33
    # flag overrides file
    cfg = resolve_config({"precision-digits": "50"}, config_path=path)
    assert cfg.precision_digits == 50 and cfg.orbit_horizon == 33
    # environment supplies the file when no flag names one
    monkeypatch.setenv("VOLJUMP_CONFIG", str(path))
    cfg = resolve_config({})
    assert cfg.precision_digits == 45


def test_resolve_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config({}, config_path=tmp_path / "absent")


def test_resolved_config_is_validated(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("precision-digits = 5\n")
    with pytest.raises(ConfigError):
        resolve_config({}, config_path=path)
