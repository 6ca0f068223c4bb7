"""Two-branch forecaster over prototype attention.

A lookback window is cut two ways: per entity into l temporal segments,
and per time block into one segment per entity. Both cuts hold the same
(N, l) grid of length-p segments, so a forward pass segments and assigns
once, and the entity branch reads that grid with its N and l axes
swapped. Both branches call the one prototype-attention kernel,
`autodiff.bucket_contexts` (separate projection weights, shared input
embedding), a single autodiff op that normalizes each prototype's
scores over the rows axis (N in the entity branch, l in the temporal
one) and differentiates only the queries. Each branch then gets a
residual + layer norm and is reduced by m readout queries. A sigmoid
gate blends the branch readouts before the linear forecast head.

The input embedding is linear, so each branch absorbs it, with the key,
value and output projections, into small weight products (see
`_branch`). Attention reads the raw segments, and a segment's residual
sum is a 2p-wide row [gathered context | raw segment] times a (2p, d)
map. Its layer norm only rescales that row, so a branch returns the
rescaled 2p-wide rows with the map and bias (`BranchFeature`), and the
readout attends over that factored form. No per-segment array wider
than 2p is built, forward or backward. Only the order of exact products
changes, not the function or its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clustering import PrototypeSet, nearest
from .errors import ConfigError, ShapeError
from .util import allocating, require_finite, seed_stream


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


def init_params(hyper: HyperParams, protos: PrototypeSet, seed: int = 0) -> ModelParams:
    """Fan-in uniform init for weights; ones/zeros for norm gains and biases."""
    rng = seed_stream(seed, "init")
    tensors: dict[str, Tensor] = {}
    with allocating(f"a model of d={hyper.d}, m={hyper.m}"):
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


def _segment(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check a window and cut it into (batch, N, l, p) temporal segments.

    Returns the segments and their prototype indices (batch, N, l). The
    entity branch reads both with the N and l axes swapped.
    """
    x = _check_input(params, x)
    h = params.hyper
    raw = x.transpose(0, 2, 1).reshape(x.shape[0], h.n_entities, h.l, h.p)
    return raw, nearest(raw, params.protos)


@dataclass(frozen=True, eq=False)
class BranchFeature:
    """A branch's d-wide tokens in factored form: scaled @ out_map + bias.

    scaled is (batch, N, l, 2p), out_map the branch's (2p, d) map and bias
    its layer-norm bias (d,). The tokens themselves are never built.
    """

    scaled: Tensor
    out_map: Tensor
    bias: Tensor


def _branch(params: ModelParams, raw: np.ndarray, idx: np.ndarray, prefix: str) -> BranchFeature:
    """Prototype attention + residual + layer norm over (..., rows, p) segments.

    With E = raw w_in the embedded segments and Q = P w_in w_e the
    prototype queries, attention is softmax(Q (E w_k)^T / sqrt(d)) (E w_v) w_o.
    Every map from raw to scores and values is linear, so both fold into
    two weight products that are computed once per call:
    Q (E w_k)^T = (Q w_k^T w_in^T) raw^T, a (k, p) query against raw
    segments, and (S E w_v) w_o = (S raw) (w_in w_v w_o) with the (p, d)
    value map w_val. So the k bucket contexts S raw are p wide; they come
    from `autodiff.bucket_contexts`, and each segment gathers its
    prototype's context row. The residual sum is then u W, with
    u = [gathered context | raw] (..., rows, 2p) and W = [w_val; w_in]
    (2p, d). Its layer norm is r (u Wc) gain + bias with
    Wc = W minus its row means and r = 1/sqrt(max(u G u^T, 0) + eps),
    G = Wc Wc^T / d, so the branch returns r u with Wg = Wc gain and the
    bias, and no (rows, d) array is built. Gradients reach every weight
    through the small products.
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
    contexts = ad.bucket_contexts(q_raw, raw, 1.0 / np.sqrt(h.d))  # (..., k, p)
    u = ad.concat_last(ad.gather_rows(contexts, idx), ad.constant(raw))  # (..., rows, 2p)
    w = ad.transpose_last(
        ad.concat_last(ad.transpose_last(w_val), ad.transpose_last(w_in))
    )  # (2p, d)
    w_c = ad.sub(w, ad.matmul(w, ad.constant(np.full((h.d, 1), 1.0 / h.d))))
    gram = ad.scale(ad.matmul(w_c, ad.transpose_last(w_c)), 1.0 / h.d)  # (2p, 2p)
    return BranchFeature(
        ad.rms_rows(u, gram), ad.mul(w_c, t[f"ln_{prefix}_gain"]), t[f"ln_{prefix}_bias"]
    )


def _entity(params: ModelParams, raw: np.ndarray, idx: np.ndarray) -> BranchFeature:
    f = _branch(params, raw.transpose(0, 2, 1, 3), idx.transpose(0, 2, 1), "e")
    # (batch, l, N, 2p) -> (batch, N, l, 2p)
    return BranchFeature(ad.permute(f.scaled, (0, 2, 1, 3)), f.out_map, f.bias)


def extract_temporal(params: ModelParams, x: np.ndarray) -> BranchFeature:
    """Per-entity temporal-segment features, (batch, N, l, d) in factored form."""
    return _branch(params, *_segment(params, x), "t")


def extract_entity(params: ModelParams, x: np.ndarray) -> BranchFeature:
    """Cross-entity features per time block, (batch, N, l, d) in factored form."""
    return _entity(params, *_segment(params, x))


def _readout(q_read: Tensor, f: BranchFeature, scale: float) -> Tensor:
    """m readout queries over one branch's tokens, (batch, N, m, d).

    A token is s Wg + bias with s = f.scaled, Wg = f.out_map, so a query's
    scores are scale (q Wg^T) s^T plus scale q . bias, which is the same
    for every token and cancels in the softmax. Softmax rows sum to one,
    so the readout is (A s) Wg + bias.
    """
    keys = ad.scale(ad.matmul(q_read, ad.transpose_last(f.out_map)), scale)  # (m, 2p)
    attn = ad.softmax(ad.matmul(keys, ad.transpose_last(f.scaled)))
    return ad.add(ad.matmul(ad.matmul(attn, f.scaled), f.out_map), f.bias)


def fuse_and_forecast(params: ModelParams, h_t: BranchFeature, h_e: BranchFeature) -> Tensor:
    """Read out both branches with m queries, gate-blend, and project.

    h_t, h_e: the branches' (batch, N, l, d) features in factored form.
    Returns predictions (batch, horizon, N).
    """
    t = params.tensors
    h = params.hyper
    scale = 1.0 / np.sqrt(h.d)
    f_t = _readout(t["q_read"], h_t, scale)
    f_e = _readout(t["q_read"], h_e, scale)
    gate = ad.sigmoid(ad.add(ad.matmul(ad.concat_last(f_t, f_e), t["gate_w"]), t["gate_b"]))
    blended = ad.add(f_e, ad.mul(gate, ad.sub(f_t, f_e)))  # gate f_t + (1 - gate) f_e
    flat = ad.reshape(blended, blended.shape[:-2] + (h.m * h.d,))
    pred = ad.add(ad.matmul(flat, t["head_w"]), t["head_b"])  # (batch, N, horizon)
    return ad.permute(pred, (0, 2, 1))


def forward(params: ModelParams, x: np.ndarray) -> Tensor:
    """Full forward pass: (batch, lookback, N) -> (batch, horizon, N)."""
    raw, idx = _segment(params, x)
    h_t = _branch(params, raw, idx, "t")
    return fuse_and_forecast(params, h_t, _entity(params, raw, idx))


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
    params: ModelParams, x: np.ndarray, norm_stats: tuple[np.ndarray, np.ndarray]
) -> ForecastBatch:
    """Forecast a single (lookback, N) window; denormalize with the
    per-entity (mean, std) train statistics."""
    if x.ndim != 2:
        raise ShapeError(f"expected a single (lookback, N) window, got shape {x.shape}")
    pred = predict(params, x[None])[0]
    mean, std = norm_stats
    return ForecastBatch(prediction=pred, denormalized=pred * std + mean)
