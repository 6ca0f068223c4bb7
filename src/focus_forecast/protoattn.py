"""Prototype-bucketed attention: linear in window length.

Instead of attending from every segment (quadratic), attention scores are
computed once per prototype against the window, and each segment reads
the context row of its assigned prototype: the broadcast step of
clustered attention. `bucket_contexts` is the one kernel. The
forecaster's branches (`model._branch`) and `proto_attention` both call
it, with or without gradients. Queries and keys are linear maps, so the
key map folds into a (k, w) query in the segments' own space, and the
value and output maps are applied to the k context rows before the
gather, which makes rows of segments sharing a bucket literal copies of
each other. `full_attention` is the quadratic per-segment self-attention
that prototype queries approximate; the two agree when every segment
equals its prototype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clustering import PrototypeSet, nearest
from .errors import ConfigError, NumericalError, ShapeError


@dataclass(frozen=True)
class ProtoAttnWeights:
    """Square (d, d) query, key, value and output maps on d-wide rows."""

    w_e: np.ndarray  # (d, d), applied to prototypes
    w_k: np.ndarray  # (d, d)
    w_v: np.ndarray  # (d, d)
    w_o: np.ndarray  # (d, d)

    def __post_init__(self):
        d = self.w_e.shape[-1]
        for name in ("w_e", "w_k", "w_v", "w_o"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ShapeError(f"{name} must be ({d}, {d}), got {w.shape}")
            if not np.all(np.isfinite(w)):
                raise NumericalError(f"non-finite value in tensor '{name}'")

    @property
    def d(self) -> int:
        return self.w_e.shape[1]

    @property
    def scale(self) -> float:
        return 1.0 / float(np.sqrt(self.d))


def build_assignment(segments: np.ndarray, protos: PrototypeSet) -> np.ndarray:
    """Each of l raw length-p segments' nearest prototype, (l,) int64."""
    if np.ndim(segments) != 2:
        raise ShapeError(f"segments must be (l, {protos.p}), got {np.shape(segments)}")
    return nearest(segments, protos)


def bucket_contexts(q_raw: Tensor, raw: np.ndarray, scale: float) -> Tensor:
    """The k bucket contexts softmax(scale q_raw raw^T) raw, (..., k, w).

    q_raw (k, w) holds the prototypes' queries in the segments' space and
    raw (..., rows, w) the segments; each segment reads its prototype's
    row. Built from autodiff ops, so gradients reach q_raw whenever they
    are recorded. Costs `kernel_flops_per_row(k, w)` per segment.
    """
    scores = ad.matmul(ad.scale(q_raw, scale), ad.constant(np.swapaxes(raw, -1, -2)))
    return ad.matmul(ad.softmax(scores), ad.constant(raw))


def _check_segments(segments, weights):
    d = weights.d
    if segments.ndim != 2 or segments.shape[1] != d:
        raise ShapeError(f"segments must be (l, {d}), got {segments.shape}")


def proto_attention(
    segments: np.ndarray,
    indices: np.ndarray,
    protos_emb: np.ndarray,
    weights: ProtoAttnWeights,
) -> np.ndarray:
    """Attend once per prototype over the window, then gather per segment.

    segments and protos_emb are embedded, (l, d) / (k, d); indices (l,)
    holds each segment's prototype row in [0, k).
    Scores (P w_e)(S w_k)^T equal q_raw S^T with q_raw = (P w_e) w_k^T,
    so `bucket_contexts` runs on the segments themselves, and the value
    and output maps run on its k rows before the gather. Cost is
    `count_flops(l, k, d)`; returns (l, d).
    """
    _check_segments(segments, weights)
    if protos_emb.ndim != 2 or protos_emb.shape[1] != weights.d:
        raise ShapeError(f"embedded prototypes must be (k, {weights.d}), got {protos_emb.shape}")
    k = protos_emb.shape[0]
    if indices.shape != segments.shape[:1]:
        raise ShapeError(
            f"need one prototype index per segment ({segments.shape[0]}), got {indices.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= k):
        raise ConfigError(f"prototype indices out of range [0, {k})")
    q_raw = (protos_emb @ weights.w_e) @ weights.w_k.T  # (k, d)
    contexts = bucket_contexts(ad.constant(q_raw), segments, weights.scale).data
    return ((contexts @ weights.w_v) @ weights.w_o)[indices]


def full_attention(segments: np.ndarray, weights: ProtoAttnWeights) -> np.ndarray:
    """Quadratic reference: per-segment self-attention, in which every
    segment queries with its own row,
    softmax((S w_e)(S w_k)^T / sqrt(d)) (S w_v) w_o.

    Plain numpy, independent of `bucket_contexts`: an (l, l) softmax over
    the segments, then the value and output maps on all l rows, at
    `count_flops_full(l, d)` cost. Where every segment equals its assigned
    prototype this is proto_attention's function; elsewhere the difference
    is the error of prototype queries.
    """
    _check_segments(segments, weights)
    q_raw = (segments @ weights.w_e) @ weights.w_k.T  # (l, d)
    scores = (weights.scale * q_raw) @ segments.T  # (l, l)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    return ((attn @ segments) @ weights.w_v) @ weights.w_o


def kernel_flops_per_row(k: int, w: int) -> int:
    """Multiply-adds `bucket_contexts` spends per segment of width w: its
    column of the (k, rows) scores and its share of the k contexts."""
    return 2 * k * w


def count_flops(l: int, k: int, d: int) -> int:
    """Multiply-adds of one `proto_attention` call on l embedded segments:
    the maps on k rows, the two query products (P w_e) w_k^T and the value
    maps (C w_v) w_o, then the kernel on l d-wide segments. The assignment
    is an input, and the gather copies rows; neither is counted.
    """
    if min(l, k, d) < 0:
        raise ConfigError("flop counts need non-negative sizes")
    return 4 * k * d * d + l * kernel_flops_per_row(k, d)


def count_flops_full(l: int, d: int) -> int:
    """Cost model for the quadratic reference: l^2-sized score and
    aggregation stages, plus per segment the two query products
    (S w_e) w_k^T and the value and output maps."""
    if min(l, d) < 0:
        raise ConfigError("flop counts need non-negative sizes")
    return 2 * l * l * d + 4 * l * d * d
