"""Training, evaluation, and gradient validation for the forecaster.

AdamW on mean-squared error over shuffled lookback/horizon windows, with
best-on-validation snapshotting and patience-based early stopping. All
randomness (init, shuffling) derives from the optimizer config seed, so
identical inputs give bit-identical parameters and loss curves.
Prototypes stay frozen throughout: assignments are hard argmins and
carry no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .clustering import PrototypeSet
from .data import TimeSeriesDataset, Windows, make_windows
from .errors import ConfigError, ShapeError
from .model import HyperParams, ModelParams, forward, init_params, params_from_arrays, predict
from .optim import AdamW, OptimizerConfig
from .util import fix_heap_policy, require_finite, seed_stream

EVAL_BATCH = 64  # windows per inference batch in evaluate


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean(np.abs(pred - target)))


def stack_windows(windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """The (B, lookback, N) inputs and (B, horizon, N) targets of the
    windows: read-only views of the series, not copies."""
    return windows.x, windows.y


def _loss_graph(params: ModelParams, x: np.ndarray, y: np.ndarray):
    pred = forward(params, x)
    err = ad.sub(pred, ad.constant(y))
    return ad.mean_all(ad.mul(err, err))


def loss_value(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """MSE of the forward pass, no gradient bookkeeping."""
    with ad.no_grad():
        return float(_loss_graph(params, x, y).data)


def backward(
    params: ModelParams, x: np.ndarray, y: np.ndarray
) -> tuple[ad.Tensor, dict[str, np.ndarray]]:
    """The MSE loss tensor (the root of the step's graph) and the
    reverse-mode gradient of every parameter tensor.

    Raises NumericalError naming the loss or the first tensor whose
    gradient is not finite.
    """
    params.zero_grad()
    loss = _loss_graph(params, x, y)
    require_finite("loss", loss.data)
    loss.backward()
    grads = params.grads()
    for name, g in grads.items():
        require_finite(name, g)
    return loss, grads


def gradient_check(params: ModelParams, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Normwise relative error between analytic and central-difference grads.

    Perturbs every entry of every parameter tensor. Assignments depend
    only on the (frozen) inputs and prototypes, so no bucket can flip
    under a parameter perturbation and the loss is smooth in params.
    """
    analytic = backward(params, x, y)[1]
    h = 1e-4  # central-difference step
    rel: dict[str, float] = {}
    for name in sorted(params.tensors):
        flat = params.tensors[name].data.ravel()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value(params, x, y)
            flat[i] = orig - h
            down = loss_value(params, x, y)
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * h)
        ga = analytic[name].ravel()
        denom = max(np.linalg.norm(ga), np.linalg.norm(fd), 1e-12)
        rel[name] = float(np.linalg.norm(ga - fd) / denom)
    return rel


@dataclass(frozen=True)
class TrainReport:
    """Loss trajectory, stopping info, and test metrics; epochs are 1-based.

    Metrics are in normalized space. Identical runs give equal reports.
    """

    epochs: int
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    best_epoch: int
    best_val: float
    test_mse: float
    test_mae: float


def evaluate(params: ModelParams, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(MSE, MAE) of the model over (x, y), computed in batches of EVAL_BATCH."""
    fix_heap_policy()
    sq = 0.0
    ab = 0.0
    for lo in range(0, x.shape[0], EVAL_BATCH):
        err = predict(params, x[lo : lo + EVAL_BATCH]) - y[lo : lo + EVAL_BATCH]
        sq += (err**2).sum()
        ab += np.abs(err).sum()
    return float(sq / y.size), float(ab / y.size)


def train(
    dataset: TimeSeriesDataset,
    protos: PrototypeSet,
    hyper: HyperParams,
    opt: OptimizerConfig,
    log=None,
) -> tuple[ModelParams, TrainReport]:
    """Fit the forecaster on the dataset's train split.

    Keeps the epoch checkpoint with the lowest validation MSE and reports
    test metrics for it. Every partition must yield at least one window.
    """
    if dataset.split is None:
        raise ConfigError("dataset must be split before training")
    if dataset.n_entities != hyper.n_entities:
        raise ConfigError(
            f"dataset has {dataset.n_entities} entities, hyperparameters say {hyper.n_entities}"
        )
    fix_heap_policy()
    batches = {
        part: stack_windows(make_windows(dataset, hyper.lookback, hyper.horizon, part))
        for part in ("train", "val", "test")
    }
    x_train, y_train = batches["train"]
    x_val, y_val = batches["val"]

    params = init_params(hyper, protos, seed=opt.seed)
    adam = AdamW(opt)
    shuffle = seed_stream(opt.seed, "shuffle")
    n = x_train.shape[0]

    train_curve: list[float] = []
    val_curve: list[float] = []
    best_val = np.inf
    best_epoch = 0
    best_arrays = {name: a.copy() for name, a in params.arrays().items()}
    for epoch in range(1, opt.max_epochs + 1):
        perm = shuffle.permutation(n)
        sq_sum = 0.0
        for lo in range(0, n, opt.batch_size):
            idx = perm[lo : lo + opt.batch_size]
            loss, grads = backward(params, x_train[idx], y_train[idx])
            adam.step(params.arrays(), grads)
            sq_sum += float(loss.data) * y_train[idx].size
            # Free the step's graph here: held into the next backward it
            # doubles the peak memory.
            del loss, grads
        epoch_train = sq_sum / y_train.size
        train_curve.append(epoch_train)
        epoch_val = evaluate(params, x_val, y_val)[0]
        val_curve.append(epoch_val)
        if log is not None:
            log(f"epoch {epoch}: train_mse={epoch_train:.6f} val_mse={epoch_val:.6f}")
        if epoch_val < best_val:
            best_val = epoch_val
            best_epoch = epoch
            best_arrays = {name: a.copy() for name, a in params.arrays().items()}
        elif epoch - best_epoch >= opt.patience:
            break

    best = params_from_arrays(hyper, protos, best_arrays)
    test_mse, test_mae = evaluate(best, *batches["test"])
    report = TrainReport(
        epochs=len(train_curve),
        train_loss=tuple(train_curve),
        val_loss=tuple(val_curve),
        best_epoch=best_epoch,
        best_val=best_val,
        test_mse=test_mse,
        test_mae=test_mae,
    )
    return best, report
