"""Config file parsing and the default/file/override layering."""

import pytest

from focus_forecast.config import RunConfig, read_config_file, resolve_config
from focus_forecast.errors import ConfigError, ParseError
from focus_forecast.optim import OptimizerConfig


def test_defaults():
    cfg = RunConfig()
    assert cfg.ratio == (0.7, 0.1, 0.2)
    assert cfg.p == 16 and cfg.k == 16 and cfg.alpha == 0.2
    assert cfg.lookback == 512 and cfg.horizon == 96
    assert cfg.lr == 1e-3 and cfg.seed == 0


def test_read_config_file_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "k = 8   # trailing comment\n"
        "alpha=0.5\n"
        "   \t \n"
    )
    assert read_config_file(path) == {"k": "8", "alpha": "0.5"}


def test_precedence_defaults_then_file_then_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k=8\nlr=0.01\n")
    cfg = resolve_config(path, overrides={"lr": 0.5, "seed": 3})
    assert cfg.k == 8          # from file
    assert cfg.lr == 0.5       # override beats file
    assert cfg.seed == 3       # override beats default
    assert cfg.p == 16         # untouched default


def test_resolve_without_file_or_overrides():
    assert resolve_config() == RunConfig()


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k=8\nk=9\n")
    with pytest.raises(ConfigError, match="duplicate"):
        read_config_file(path)


def test_malformed_line_reports_row(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k=8\nthis is not a pair\n")
    with pytest.raises(ParseError) as exc:
        read_config_file(path)
    assert "line 2" in str(exc.value)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("warp_speed=9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        resolve_config(path)
    with pytest.raises(ConfigError, match="warp_speed"):
        resolve_config(None, overrides={"warp_speed": 9})


@pytest.mark.parametrize("key", ["cluster_lr", "beta1", "beta2", "eps"])
def test_removed_optimizer_keys_are_unknown(tmp_path, key):
    # the fit's learning rate and AdamW's betas and eps are constants now
    path = tmp_path / "run.cfg"
    path.write_text(f"{key}=0.5\n")
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
        resolve_config(path)


@pytest.mark.parametrize("key", ["p", "d", "max_epochs", "cluster_max_iters"])
@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
def test_int_values_outside_int64_are_rejected_by_name(tmp_path, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key}={value}\n")
    with pytest.raises(ConfigError, match=rf"^{key} must be in \[-2\*\*63, 2\*\*63\)"):
        resolve_config(path)
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        resolve_config(None, overrides={key: value})
    assert getattr(resolve_config(None, overrides={key: 2**63 - 1}), key) == 2**63 - 1


def test_int_fields_reject_fractional_text(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k=1.5\n")
    with pytest.raises(ConfigError, match="'k'"):
        resolve_config(path)


def test_float_fields_parse_scientific(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr=5e-4\nweight_decay=0\n")
    cfg = resolve_config(path)
    assert cfg.lr == 5e-4
    assert cfg.weight_decay == 0.0


def test_ratio_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("ratio=0.6, 0.2 ,0.2\n")
    assert resolve_config(path).ratio == (0.6, 0.2, 0.2)
    path.write_text("ratio=0.6,0.4\n")
    with pytest.raises(ConfigError):
        resolve_config(path)
    path.write_text("ratio=a,b,c\n")
    with pytest.raises(ConfigError):
        resolve_config(path)


def test_unreadable_path_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        read_config_file(tmp_path / "missing.cfg")


def test_config_bytes_that_are_not_utf8_are_parse_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"lr=0.01\nseed=\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read_config_file(path)


def test_optimizer_mapping():
    cfg = RunConfig(lr=0.02, weight_decay=0.3, max_epochs=7, batch_size=4, patience=2, seed=5)
    opt = cfg.optimizer()
    assert (opt.lr, opt.weight_decay) == (0.02, 0.3)
    assert (opt.max_epochs, opt.batch_size, opt.patience, opt.seed) == (7, 4, 2, 5)


def test_default_run_config_maps_to_default_optimizer():
    assert RunConfig().optimizer() == OptimizerConfig()
