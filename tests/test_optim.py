"""AdamW update rule: closed forms, bias correction, decoupled decay."""

import numpy as np
import pytest

from focus_forecast.errors import ConfigError
from focus_forecast.optim import AdamW, OptimizerConfig


def test_first_step_without_decay_is_pure_adam():
    # after bias correction, m_hat = g and v_hat = g^2, so the first step
    # moves each coordinate by lr * g / (|g| + eps)
    cfg = OptimizerConfig(lr=0.05, weight_decay=0.0)
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.1, 2.0])
    opt = AdamW(cfg)
    opt.step({"w": p}, {"w": g.copy()})
    expected = np.array([1.0, -2.0, 0.5]) - 0.05 * g / (np.abs(g) + cfg.eps)
    np.testing.assert_allclose(p, expected, atol=1e-12)


def test_decay_applies_after_the_adam_update():
    cfg = OptimizerConfig(lr=0.1, weight_decay=0.01)
    p = np.array([4.0])
    opt = AdamW(cfg)
    opt.step({"w": p}, {"w": np.array([0.0])})
    # zero gradient: the Adam term vanishes, only decay acts
    np.testing.assert_allclose(p, [4.0 * (1 - 0.1 * 0.01)], atol=1e-15)


def test_multi_step_matches_reference_recursion():
    cfg = OptimizerConfig(lr=0.02, beta1=0.8, beta2=0.9, eps=1e-8, weight_decay=0.03)
    rng = np.random.default_rng(0)
    p = rng.standard_normal(6)
    grads = [rng.standard_normal(6) for _ in range(7)]

    ref = p.copy()
    m = np.zeros(6)
    v = np.zeros(6)
    for t, g in enumerate(grads, start=1):
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1**t)
        v_hat = v / (1 - cfg.beta2**t)
        ref -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        ref -= cfg.lr * cfg.weight_decay * ref

    opt = AdamW(cfg)
    for g in grads:
        opt.step({"w": p}, {"w": g})
    np.testing.assert_allclose(p, ref, atol=1e-12)


def test_updates_happen_in_place():
    p = np.ones(3)
    ref = p
    AdamW(OptimizerConfig()).step({"w": p}, {"w": np.ones(3)})
    assert ref is p and not np.array_equal(p, np.ones(3))


def test_state_is_tracked_per_parameter():
    cfg = OptimizerConfig(lr=0.1, weight_decay=0.0)
    a = np.array([0.0])
    b = np.array([0.0])
    opt = AdamW(cfg)
    opt.step({"a": a, "b": b}, {"a": np.array([1.0]), "b": np.array([-1.0])})
    opt.step({"a": a, "b": b}, {"a": np.array([1.0]), "b": np.array([-1.0])})
    np.testing.assert_allclose(a, -b, atol=1e-15)


def test_lr_zero_is_a_no_op():
    p = np.array([1.0, 2.0])
    AdamW(OptimizerConfig(lr=0.0, weight_decay=0.5)).step({"w": p}, {"w": np.ones(2)})
    np.testing.assert_array_equal(p, [1.0, 2.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lr": -1e-3},
        {"beta1": 0.0},
        {"beta1": 1.0},
        {"beta2": 1.2},
        {"eps": 0.0},
        {"weight_decay": -0.1},
        {"batch_size": 0},
        {"patience": -1},
        {"max_epochs": -5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        OptimizerConfig(**kwargs)


@pytest.mark.parametrize(
    "name,value",
    [
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("lr", float("-inf")),
        ("eps", float("nan")),
        ("eps", float("inf")),
        ("weight_decay", float("nan")),
        ("weight_decay", float("inf")),
    ],
)
def test_config_rejects_non_finite_settings(name, value):
    # NaN fails every comparison, so a range check alone does not reject it
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        OptimizerConfig(**{name: value})
