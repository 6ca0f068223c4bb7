"""Loss metrics, gradients, and the training loop."""

import ctypes
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import focus_forecast
from focus_forecast.bench import traced_peak_bytes
from focus_forecast.clustering import PrototypeSet
from focus_forecast.data import (
    TimeSeriesDataset,
    generate_synthetic,
    make_windows,
    split_and_normalize,
)
from focus_forecast.errors import ConfigError, NumericalError, ShapeError
from focus_forecast.model import HyperParams, ModelParams, init_params, predict
from focus_forecast.optim import OptimizerConfig
from focus_forecast.training import (
    EVAL_BATCH,
    backward,
    evaluate,
    gradient_check,
    loss_value,
    mae,
    mse,
    stack_windows,
    train,
)

HYPER = HyperParams(p=4, d=8, m=2, k=4, lookback=16, horizon=4, n_entities=3)


def small_dataset(seed=0):
    result = generate_synthetic(3, 200, 2, 0.1, seed=seed, p=4)
    return split_and_normalize(result.dataset, (0.7, 0.1, 0.2)), result


def small_protos(seed=11):
    rng = np.random.default_rng(seed)
    return PrototypeSet(rng.standard_normal((HYPER.k, HYPER.p)), alpha=0.2)


# --------------------------------------------------------------- metrics


def test_mse_mae_examples():
    a = np.zeros((2, 3))
    assert mse(a, a) == 0.0
    assert mae(a, a) == 0.0
    assert mse(a + 2.0, a) == 4.0
    assert mae(a + 2.0, a) == 2.0
    assert mse(np.array([0.0, 3.0]), np.array([0.0, 1.0])) == 2.0
    assert mae(np.array([0.0, 3.0]), np.array([0.0, 1.0])) == 1.0


def test_metrics_reject_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeError):
        mae(np.zeros((2, 2)), np.zeros(4))


def test_stack_windows_shapes_and_empty():
    ds, _ = small_dataset()
    wins = make_windows(ds, HYPER.lookback, HYPER.horizon, "val")
    x, y = stack_windows(wins)
    assert x.shape == (len(wins), HYPER.lookback, 3)
    assert y.shape == (len(wins), HYPER.horizon, 3)
    o = ds.split[0]  # the first val window starts at the partition's first row
    span = HYPER.lookback + HYPER.horizon
    np.testing.assert_array_equal(x[0], ds.values[o : o + HYPER.lookback])
    np.testing.assert_array_equal(y[0], ds.values[o + HYPER.lookback : o + span])
    with pytest.raises(ConfigError):
        stack_windows(make_windows(ds, 200, HYPER.horizon, "val"))


def test_stacking_windows_allocates_less_than_the_series():
    # ETTh1's length and entity count: copies of its windows would take ~100x the series
    ds = split_and_normalize(
        TimeSeriesDataset(np.random.default_rng(0).standard_normal((17_420, 7)), ["e"] * 7),
        (0.6, 0.2, 0.2),
    )
    peak = traced_peak_bytes(lambda: stack_windows(make_windows(ds, 512, 96, "test")))
    assert peak < ds.values.nbytes


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_repeated_evaluate_faults_in_no_new_pages():
    # ETTh1 geometry; a fresh process, so no earlier test has set its heap history
    script = textwrap.dedent(
        """
        import resource
        import numpy as np
        from focus_forecast.clustering import PrototypeSet
        from focus_forecast.data import TimeSeriesDataset, make_windows, split_and_normalize
        from focus_forecast.model import HyperParams, init_params
        from focus_forecast.training import evaluate, stack_windows

        rng = np.random.default_rng(0)
        values = rng.standard_normal((1200, 7))
        ds = split_and_normalize(TimeSeriesDataset(values, ["e"] * 7), (0.8, 0.1, 0.1))
        hyper = HyperParams(p=16, d=64, m=6, k=16, lookback=512, horizon=96, n_entities=7)
        params = init_params(hyper, PrototypeSet(rng.standard_normal((16, 16)), alpha=0.2))
        x, y = stack_windows(make_windows(ds, 512, 96, "train"))
        x, y = x[:256], y[:256]
        evaluate(params, x, y)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate(params, x, y)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(focus_forecast.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[-1]) < 2000


# ------------------------------------------------------------- gradients


def test_perfect_prediction_has_zero_gradient(tiny_model):
    params, x, _ = tiny_model
    y = predict(params, x)
    loss, grads = backward(params, x, y)
    assert float(loss.data) == 0.0
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_head_bias_gradient_closed_form(tiny_model):
    params, x, y = tiny_model
    _, grads = backward(params, x, y)
    err = predict(params, x) - y  # (B, horizon, N)
    expected = 2.0 * err.sum(axis=(0, 2)) / err.size
    np.testing.assert_allclose(grads["head_b"], expected, atol=1e-12)


def test_gradient_check_small_config(tiny_model):
    params, x, y = tiny_model
    rel = gradient_check(params, x, y)
    assert set(rel) == set(params.tensors)
    worst = max(rel.values())
    assert worst <= 1e-4, rel


def test_loss_value_matches_mse_of_predict(tiny_model):
    params, x, y = tiny_model
    assert loss_value(params, x, y) == pytest.approx(
        mse(predict(params, x), y), abs=1e-15
    )


def test_evaluate_batching_is_exact(tiny_model):
    # two full batches and a short one, against one unbatched predict
    params, _, _ = tiny_model
    n = 2 * EVAL_BATCH + 5
    rng = np.random.default_rng(21)
    x = rng.standard_normal((n, HYPER.lookback, 3))
    y = rng.standard_normal((n, HYPER.horizon, 3))
    batched = evaluate(params, x, y)
    pred = predict(params, x)
    assert batched[0] == pytest.approx(mse(pred, y), abs=1e-12)
    assert batched[1] == pytest.approx(mae(pred, y), abs=1e-12)


# ---------------------------------------------------------------- train


def test_train_is_deterministic_up_to_wall_clock():
    ds, _ = small_dataset()
    protos = small_protos()
    opt = OptimizerConfig(max_epochs=2, batch_size=32, patience=3, seed=4)
    p1, r1 = train(ds, protos, HYPER, opt)
    p2, r2 = train(ds, protos, HYPER, opt)
    assert r1 == r2  # every field, the loss curves included
    for name, a in p1.arrays().items():
        np.testing.assert_array_equal(a, p2.arrays()[name])


def test_train_rejects_a_non_finite_gradient_in_the_step_that_makes_it(monkeypatch):
    grads = ModelParams.grads

    def poisoned(self):
        out = grads(self)
        out["head_b"][0] = np.inf
        return out

    monkeypatch.setattr(ModelParams, "grads", poisoned)
    ds, _ = small_dataset()
    opt = OptimizerConfig(max_epochs=1, batch_size=32, patience=1, seed=0)
    with pytest.raises(NumericalError, match="'head_b'"):
        train(ds, small_protos(), HYPER, opt)


def test_train_reduces_loss_and_reports_consistently():
    ds, _ = small_dataset()
    protos = small_protos()
    opt = OptimizerConfig(max_epochs=5, batch_size=32, patience=5, seed=0)
    best, report = train(ds, protos, HYPER, opt)
    assert report.train_loss[-1] < report.train_loss[0]
    assert report.best_val == min(report.val_loss)
    assert report.val_loss[report.best_epoch - 1] == report.best_val
    assert len(report.train_loss) == len(report.val_loss) == report.epochs

    x_val, y_val = stack_windows(make_windows(ds, HYPER.lookback, HYPER.horizon, "val"))
    assert evaluate(best, x_val, y_val)[0] == report.best_val

    x_test, y_test = stack_windows(make_windows(ds, HYPER.lookback, HYPER.horizon, "test"))
    got_mse, got_mae = evaluate(best, x_test, y_test)
    assert got_mse == report.test_mse
    assert got_mae == report.test_mae


def test_train_zero_lr_keeps_init_and_stops_on_patience():
    ds, _ = small_dataset()
    protos = small_protos()
    opt = OptimizerConfig(lr=0.0, max_epochs=10, batch_size=32, patience=2, seed=7)
    best, report = train(ds, protos, HYPER, opt)
    # constant validation loss: only epoch 1 improves, patience trips at 3
    assert report.epochs == 3
    assert report.best_epoch == 1
    assert len(set(report.val_loss)) == 1
    # train epochs shuffle batch composition, so the weighted epoch mean is
    # re-associated; identical up to summation order
    np.testing.assert_allclose(report.train_loss, report.train_loss[0], rtol=1e-12)
    init = init_params(HYPER, protos, seed=opt.seed)
    for name, a in best.arrays().items():
        np.testing.assert_array_equal(a, init.arrays()[name])


def test_train_logs_progress():
    ds, _ = small_dataset()
    lines = []
    opt = OptimizerConfig(max_epochs=2, batch_size=64, patience=3, seed=0)
    train(ds, small_protos(), HYPER, opt, log=lines.append)
    assert len(lines) == 2
    assert "epoch 1:" in lines[0] and "val_mse=" in lines[0]


def test_train_validates_dataset():
    ds, _ = small_dataset()
    protos = small_protos()
    opt = OptimizerConfig(max_epochs=1, batch_size=32, patience=1, seed=0)

    unsplit, _ = small_dataset()
    object.__setattr__(unsplit, "split", None)
    with pytest.raises(ConfigError):
        train(unsplit, protos, HYPER, opt)

    wrong_n = HyperParams(p=4, d=8, m=2, k=4, lookback=16, horizon=4, n_entities=5)
    with pytest.raises(ConfigError):
        train(ds, protos, wrong_n, opt)

    # val partition (20 rows) can't hold a 36+4 window
    too_long = HyperParams(p=4, d=8, m=2, k=4, lookback=36, horizon=4, n_entities=3)
    with pytest.raises(ConfigError, match="val partition has 20 rows"):
        train(ds, protos, too_long, opt)
