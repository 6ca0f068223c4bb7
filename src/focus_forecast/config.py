"""Run configuration: built-in defaults, key=value file, CLI overrides.

Precedence is CLI flag > config file > default. The file format is one
`key=value` per line; blank lines and `#` comments are ignored. Unknown
keys are rejected; value validation beyond basic parsing is left to the
owning module (optimizer, model, clustering) constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .clustering import CLUSTER_OPT_DEFAULTS, DEFAULT_MAX_ITERS, DEFAULT_TOL
from .errors import ConfigError, ParseError
from .optim import OptimizerConfig

_OPT_DEFAULTS = OptimizerConfig()


@dataclass(frozen=True)
class RunConfig:
    # data pipeline
    ratio: tuple[float, float, float] = (0.7, 0.1, 0.2)
    # prototype fitting
    p: int = 16
    k: int = 16
    alpha: float = 0.2
    cluster_lr: float = CLUSTER_OPT_DEFAULTS.lr
    cluster_max_iters: int = DEFAULT_MAX_ITERS
    cluster_tol: float = DEFAULT_TOL
    # forecaster
    d: int = 64
    m: int = 6
    lookback: int = 512
    horizon: int = 96
    # online optimizer
    lr: float = _OPT_DEFAULTS.lr
    beta1: float = _OPT_DEFAULTS.beta1
    beta2: float = _OPT_DEFAULTS.beta2
    eps: float = _OPT_DEFAULTS.eps
    weight_decay: float = _OPT_DEFAULTS.weight_decay
    max_epochs: int = _OPT_DEFAULTS.max_epochs
    batch_size: int = _OPT_DEFAULTS.batch_size
    patience: int = _OPT_DEFAULTS.patience
    # all stochastic stages derive from this
    seed: int = 0

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            **{f.name: getattr(self, f.name) for f in fields(OptimizerConfig)}
        )


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    if key == "ratio":
        parts = [s.strip() for s in raw.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"key 'ratio' needs 3 comma-separated fractions, got {raw!r}")
        try:
            return tuple(float(s) for s in parts)
        except ValueError:
            raise ConfigError(f"key 'ratio' has a non-numeric fraction in {raw!r}") from None
    target = _FIELDS[key].type
    try:
        if target in ("int", int):
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} expects a {target} value, got {raw!r}") from None


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a key=value file into raw strings, without interpretation."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read config file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from e
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}: malformed line {lineno} (need key=value)")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}: duplicate key {key!r} on line {lineno}")
        values[key] = raw.strip()
    return values


def resolve_config(
    config_path: str | Path | None = None, overrides: dict[str, object] | None = None
) -> RunConfig:
    """Layer file values and typed CLI overrides on the defaults."""
    cfg = RunConfig()
    if config_path is not None:
        file_values = read_config_file(config_path)
        unknown = sorted(set(file_values) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg = replace(cfg, **{k: _parse_value(k, v) for k, v in file_values.items()})
    if overrides:
        unknown = sorted(set(overrides) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg = replace(cfg, **overrides)
    if not -(2**63) <= cfg.seed < 2**63:  # seeds are stored as int64
        raise ConfigError(f"seed must be in [-2**63, 2**63), got {cfg.seed}")
    return cfg
