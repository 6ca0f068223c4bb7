"""Two-branch forecaster over prototype attention.

A lookback window is cut two ways: per entity into l temporal segments,
and per time block into one segment per entity. Both cuts hold the same
(N, l) grid of length-p segments, so a forward pass segments, assigns
and embeds once, and the entity branch reads that grid with its N and l
axes swapped. Both branches run the same prototype-attention kernel
(separate projection weights, shared input embedding), get a residual +
layer norm, and are reduced by m readout queries. A sigmoid gate blends
the branch features before the linear forecast head.

The input embedding is linear, so each branch absorbs it, with the key
and output projections, into two small weight products (see `_branch`).
Attention then reads the raw segments: the k bucket contexts and the
gathered per-segment rows are p wide, and the (p, d) value map runs last,
once per segment, straight into the fused residual + layer norm. Only
the order of exact products changes, not the function or its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clustering import PrototypeSet, _assign_arr
from .errors import ConfigError, ShapeError
from .util import require_finite, seed_stream


@dataclass(frozen=True)
class HyperParams:
    p: int
    d: int
    m: int
    k: int
    lookback: int
    horizon: int
    n_entities: int

    def __post_init__(self):
        if self.p < 2:
            raise ConfigError(f"segment length p must be >= 2, got {self.p}")
        for name in ("d", "m", "k", "horizon", "n_entities"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lookback < self.p or self.lookback % self.p != 0:
            raise ConfigError(
                f"lookback must be a positive multiple of p={self.p}, got {self.lookback}"
            )

    @property
    def l(self) -> int:
        return self.lookback // self.p


def _param_shapes(h: HyperParams) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) in the fixed order used for seeding and I/O."""
    shapes: list[tuple[str, tuple[int, ...], str]] = [("w_in", (h.p, h.d), "uniform")]
    for branch in ("t", "e"):
        for w in ("we", "wk", "wv", "wo"):
            shapes.append((f"{branch}_{w}", (h.d, h.d), "uniform"))
        shapes.append((f"ln_{branch}_gain", (h.d,), "ones"))
        shapes.append((f"ln_{branch}_bias", (h.d,), "zeros"))
    shapes += [
        ("q_read", (h.m, h.d), "uniform"),
        ("gate_w", (2 * h.d, h.d), "uniform"),
        ("gate_b", (h.d,), "zeros"),
        ("head_w", (h.m * h.d, h.horizon), "uniform"),
        ("head_b", (h.horizon,), "zeros"),
    ]
    return shapes


@dataclass
class ModelParams:
    hyper: HyperParams
    protos: PrototypeSet
    tensors: dict[str, Tensor] = field(repr=False)

    def __post_init__(self):
        if self.protos.k != self.hyper.k or self.protos.p != self.hyper.p:
            raise ConfigError(
                f"prototype set ({self.protos.k}, {self.protos.p}) does not match "
                f"hyperparameters (k={self.hyper.k}, p={self.hyper.p})"
            )
        expected = {name: shape for name, shape, _ in _param_shapes(self.hyper)}
        if set(self.tensors) != set(expected):
            missing = sorted(set(expected) - set(self.tensors))
            extra = sorted(set(self.tensors) - set(expected))
            raise ConfigError(f"bad parameter set: missing {missing}, extra {extra}")
        for name, t in self.tensors.items():
            if t.data.shape != expected[name]:
                raise ShapeError(
                    f"{name} must have shape {expected[name]}, got {t.data.shape}"
                )
            require_finite(name, t.data)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self.tensors.items()
        }

    def zero_grad(self):
        for t in self.tensors.values():
            t.grad = None

    @property
    def n_params(self) -> int:
        return sum(t.data.size for t in self.tensors.values())


def init_params(hyper: HyperParams, protos: PrototypeSet, seed: int = 0) -> ModelParams:
    """Fan-in uniform init for weights; ones/zeros for norm gains and biases."""
    rng = seed_stream(seed, "init")
    tensors: dict[str, Tensor] = {}
    for name, shape, kind in _param_shapes(hyper):
        if kind == "uniform":
            bound = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-bound, bound, size=shape)
        elif kind == "ones":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(hyper=hyper, protos=protos, tensors=tensors)


def params_from_arrays(
    hyper: HyperParams, protos: PrototypeSet, arrays: dict[str, np.ndarray]
) -> ModelParams:
    tensors = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    return ModelParams(hyper=hyper, protos=protos, tensors=tensors)


def _check_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    h = params.hyper
    if x.ndim != 3 or x.shape[1] != h.lookback or x.shape[2] != h.n_entities:
        raise ShapeError(
            f"input must be (batch, {h.lookback}, {h.n_entities}), got {x.shape}"
        )
    require_finite("input", x)
    return x


def _segment(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, Tensor]:
    """Check a window and cut it into (batch, N, l, p) temporal segments.

    Returns the segments, their prototype indices (batch, N, l) and their
    shared embedding (batch, N, l, d). The entity branch reads all three
    with the N and l axes swapped.
    """
    x = _check_input(params, x)
    h = params.hyper
    raw = x.transpose(0, 2, 1).reshape(x.shape[0], h.n_entities, h.l, h.p)
    protos = params.protos
    idx = _assign_arr(raw.reshape(-1, h.p), protos.prototypes, protos.alpha).assignment
    embedded = ad.matmul(ad.constant(raw), params.tensors["w_in"])
    return raw, idx.reshape(raw.shape[:-1]), embedded


def _branch(
    params: ModelParams, raw: np.ndarray, idx: np.ndarray, embedded: Tensor, prefix: str
) -> Tensor:
    """Prototype attention + residual + layer norm over (..., rows, p) segments.

    With E = raw w_in the embedded segments and Q = P w_in w_e the
    prototype queries, attention is softmax(Q (E w_k)^T / sqrt(d)) (E w_v) w_o.
    Every map from raw to scores and values is linear, so both fold into
    two weight products that are computed once per call:
    Q (E w_k)^T = (Q w_k^T w_in^T) raw^T, a (k, p) query against raw
    segments, and (S E w_v) w_o = (S raw) (w_in w_v w_o), a (p, d) value
    map applied last. So the k bucket contexts S raw are p wide, each
    segment gathers its prototype's context row, and only then is the row
    mapped to width d and added to E inside the layer norm. Gathering rows
    commutes with the right-multiplication, so this equals gathering the
    d-wide bucket outputs. Gradients reach every weight through the two
    small products.
    """
    t = params.tensors
    h = params.hyper
    w_in = t["w_in"]
    queries = ad.matmul(ad.constant(params.protos.prototypes), w_in)
    queries = ad.matmul(queries, t[f"{prefix}_we"])  # (k, d)
    q_raw = ad.matmul(
        ad.matmul(queries, ad.transpose_last(t[f"{prefix}_wk"])), ad.transpose_last(w_in)
    )  # (k, p)
    w_val = ad.matmul(ad.matmul(w_in, t[f"{prefix}_wv"]), t[f"{prefix}_wo"])  # (p, d)
    scores = ad.scale(
        ad.matmul(q_raw, ad.constant(np.swapaxes(raw, -1, -2))), 1.0 / np.sqrt(h.d)
    )
    contexts = ad.matmul(ad.softmax(scores), ad.constant(raw))  # (..., k, p)
    values = ad.matmul(ad.gather_rows(contexts, idx), w_val)  # (..., rows, d)
    return ad.residual_layer_norm(
        values, embedded, t[f"ln_{prefix}_gain"], t[f"ln_{prefix}_bias"]
    )


def _entity(params: ModelParams, raw: np.ndarray, idx: np.ndarray, embedded: Tensor) -> Tensor:
    out = _branch(
        params,
        raw.transpose(0, 2, 1, 3),
        idx.transpose(0, 2, 1),
        ad.permute(embedded, (0, 2, 1, 3)),
        "e",
    )  # (batch, l, N, d)
    return ad.permute(out, (0, 2, 1, 3))


def extract_temporal(params: ModelParams, x: np.ndarray) -> Tensor:
    """Per-entity temporal-segment features, (batch, N, l, d)."""
    return _branch(params, *_segment(params, x), "t")


def extract_entity(params: ModelParams, x: np.ndarray) -> Tensor:
    """Cross-entity features per time block, returned as (batch, N, l, d)."""
    return _entity(params, *_segment(params, x))


def fuse_and_forecast(params: ModelParams, h_t: Tensor, h_e: Tensor) -> Tensor:
    """Read out both branches with m queries, gate-blend, and project.

    h_t, h_e: (batch, N, l, d). Returns predictions (batch, horizon, N).
    """
    t = params.tensors
    h = params.hyper
    scale = 1.0 / np.sqrt(h.d)
    f_t = ad.matmul(ad.softmax(ad.scale(ad.matmul(t["q_read"], ad.transpose_last(h_t)), scale)), h_t)
    f_e = ad.matmul(ad.softmax(ad.scale(ad.matmul(t["q_read"], ad.transpose_last(h_e)), scale)), h_e)
    gate = ad.sigmoid(ad.add(ad.matmul(ad.concat_last(f_t, f_e), t["gate_w"]), t["gate_b"]))
    ones = ad.constant(np.ones_like(gate.data))
    blended = ad.add(ad.mul(gate, f_t), ad.mul(ad.sub(ones, gate), f_e))
    flat = ad.reshape(blended, blended.shape[:-2] + (h.m * h.d,))
    pred = ad.add(ad.matmul(flat, t["head_w"]), t["head_b"])  # (batch, N, horizon)
    return ad.permute(pred, (0, 2, 1))


def forward(params: ModelParams, x: np.ndarray) -> Tensor:
    """Full forward pass: (batch, lookback, N) -> (batch, horizon, N)."""
    raw, idx, embedded = _segment(params, x)
    h_t = _branch(params, raw, idx, embedded, "t")
    return fuse_and_forecast(params, h_t, _entity(params, raw, idx, embedded))


def predict(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Inference-only forward pass returning a plain array."""
    with ad.no_grad():
        return forward(params, x).data


@dataclass(frozen=True, eq=False)
class ForecastBatch:
    """One window's forecast in normalized and original units, (horizon, N)."""

    prediction: np.ndarray
    denormalized: np.ndarray


def forecast_window(
    params: ModelParams,
    x: np.ndarray,
    norm_stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> ForecastBatch:
    """Forecast a single (lookback, N) window; denormalize with the given
    per-entity (mean, std) train statistics when available."""
    if x.ndim != 2:
        raise ShapeError(f"expected a single (lookback, N) window, got shape {x.shape}")
    pred = predict(params, x[None])[0]
    if norm_stats is None:
        denorm = pred.copy()
    else:
        mean, std = norm_stats
        denorm = pred * std + mean
    return ForecastBatch(prediction=pred, denormalized=denorm)
