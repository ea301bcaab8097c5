import pytest

from voljump.config import (
    KEY_FIELDS,
    ConfigError,
    RunConfig,
    read_config_file,
    resolve_config,
)

ALL_KEYS = tuple(KEY_FIELDS)


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
    assert resolve_config({}, ALL_KEYS).output_format == "text"
    assert resolve_config({}, ALL_KEYS, formats=("md", "csv")).output_format == "md"
    assert resolve_config({"format": "csv"}, ALL_KEYS, formats=("md", "csv")).output_format == "csv"
    with pytest.raises(ConfigError, match=r"invalid choice 'json' \(choose from md, csv\)"):
        resolve_config({"format": "json"}, ALL_KEYS, formats=("md", "csv"))


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
    cfg = resolve_config({}, ALL_KEYS, config_path=path)
    assert cfg.precision_digits == 45 and cfg.orbit_horizon == 33
    # flag overrides file
    cfg = resolve_config({"precision-digits": "50"}, ALL_KEYS, config_path=path)
    assert cfg.precision_digits == 50 and cfg.orbit_horizon == 33
    # environment supplies the file when no flag names one
    monkeypatch.setenv("VOLJUMP_CONFIG", str(path))
    cfg = resolve_config({}, ALL_KEYS)
    assert cfg.precision_digits == 45


def test_resolve_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config({}, ALL_KEYS, config_path=tmp_path / "absent")


def test_resolved_config_is_validated(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("precision-digits = 5\n")
    with pytest.raises(ConfigError):
        resolve_config({}, ALL_KEYS, config_path=path)


def test_resolve_applies_only_the_commands_keys_from_the_file(tmp_path, monkeypatch):
    monkeypatch.delenv("VOLJUMP_CONFIG", raising=False)
    path = tmp_path / "cfg"
    path.write_text("precision-digits = 5\norbit-horizon = 7\ntol-digits = many\n")
    # the unread keys are neither cast nor validated
    cfg = resolve_config({}, ("orbit-horizon", "format"), config_path=path)
    assert (cfg.precision_digits, cfg.orbit_horizon, cfg.table_digits) == (60, 7, None)
    with pytest.raises(ConfigError, match="precision-digits must be at least 20, got 5"):
        resolve_config({}, ("precision-digits", "format"), config_path=path)
    with pytest.raises(ConfigError, match="tol-digits: invalid int value 'many'"):
        resolve_config({}, ("tol-digits", "format"), config_path=path)
    # an unknown key is still rejected, whatever the command reads
    path.write_text("speed = fast\n")
    with pytest.raises(ConfigError, match="unknown key 'speed'"):
        resolve_config({}, (), config_path=path)
