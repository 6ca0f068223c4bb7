"""Measurement harness for the efficiency and approximation claims.

Covers: analytic FLOP counts, interleaved wall-clock timing and traced
peak memory of the linear kernel, the quadratic reference, and the whole
model; a rank-r probe of how well prototype rows reproduce segment-matrix
products; and an ablation of the correlation term in prototype fitting.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import glob
import os
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .clustering import PrototypeSet, fit, nearest, pearson_corr
from .config import RunConfig
from .data import SegmentMatrix, TimeSeriesDataset, segment
from .errors import ConfigError
from .model import HyperParams, init_params, predict
from .protoattn import (
    ProtoAttnWeights,
    count_flops,
    count_flops_full,
    full_attention,
    kernel_flops_per_row,
    proto_attention,
)
from .util import allocating, seed_stream

WARMUP_REPS = 2
TIMED_REPS = 7
SWEEP_MODES = ("protoattn", "full_attn", "end_to_end")


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    Looks where numpy's wheels keep the library, then on the loader path,
    under both the scipy-openblas and the plain symbol prefixes. Warns once
    when there is nothing to pin.
    """
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    found = ctypes.util.find_library("openblas")
    for path in libs + ([found] if found else []):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    warnings.warn(
        "BLAS threads are not pinned: no OpenBLAS library was found, so "
        "timings may use several threads",
        RuntimeWarning,
        stacklevel=2,
    )
    return None


@contextmanager
def _single_thread():
    # pin BLAS to one thread so wall-clock scaling reflects arithmetic, not
    # parallel speedup kicking in at larger sizes
    fns = _openblas_threads()
    if fns is None:
        yield
        return
    get, set_ = fns
    prev = get()
    set_(1)
    try:
        yield
    finally:
        set_(prev)


@dataclass(frozen=True)
class BenchRow:
    experiment: str
    size: int
    median_ns: int
    flops: int
    peak_bytes: int


@dataclass(frozen=True)
class BenchReport:
    """Timing/cost rows plus a log-log slope per experiment.

    Slopes are least-squares fits of log(median time) against log(size)
    over the three largest sizes.
    """

    rows: tuple[BenchRow, ...]
    slopes: dict[str, float]

    def to_csv(self) -> str:
        lines = ["experiment,size,median_ns,flops,peak_bytes,slope"]
        by_exp: dict[str, list[BenchRow]] = {}
        for row in self.rows:
            by_exp.setdefault(row.experiment, []).append(row)
        for exp, rows in by_exp.items():
            for i, row in enumerate(rows):
                slope = f"{self.slopes[exp]:.6f}" if i == len(rows) - 1 else ""
                lines.append(
                    f"{row.experiment},{row.size},{row.median_ns},{row.flops},"
                    f"{row.peak_bytes},{slope}"
                )
        return "\n".join(lines) + "\n"


def _fit_slope(sizes, seconds) -> float:
    tail = min(3, len(sizes))
    x = np.log(np.asarray(sizes[-tail:], dtype=np.float64))
    y = np.log(np.asarray(seconds[-tail:], dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])


def traced_peak_bytes(fn) -> int:
    """Peak bytes that one call of `fn()` allocates above what was live
    when it started, as `tracemalloc` sees them (numpy array buffers
    included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def count_forward_flops(h: HyperParams) -> int:
    """Multiply-add count for one forecaster forward pass over one window.

    Counts what `model.forward` runs on its n = N*l segments, with
    w = 2p the width of a branch's rows: the composite-distance
    assignment, once; per branch, the weight products (the (k, p)
    raw-space queries, the (p, d) value map, the row means, centring and
    gain of the (w, d) layer-norm map W, its (w, w) gram matrix, and the
    readout keys q_read Wg^T), then per segment the attention kernel at
    row width p (`protoattn.kernel_flops_per_row`), the quadratic
    form u G u^T of its w-wide row, and m w-wide readout scores and
    aggregations, and per entity the readout's (m, w) x (w, d) map and
    bias; then the gate (with its bias and blend) and the head. The
    per-row scale r u is elementwise and not counted.
    """
    n = h.n_entities * h.l
    w = 2 * h.p
    assign = 2 * n * h.k * h.p + 2 * n * h.p
    weights = (
        2 * h.k * h.p * h.d + 2 * h.k * h.d * h.d + 2 * h.p * h.d * h.d
        + 3 * w * h.d + w * w * h.d + h.m * h.d * w
    )
    per_segment = kernel_flops_per_row(h.k, h.p) + w * w + w + 2 * h.m * w
    per_entity = h.m * w * h.d + h.m * h.d
    branch = weights + n * per_segment + h.n_entities * per_entity
    gate = h.n_entities * (h.m * (2 * h.d * h.d + h.d) + 2 * h.m * h.d)
    head = h.n_entities * (h.m * h.d * h.horizon + h.horizon)
    return assign + 2 * branch + gate + head


def scaling_sweep(
    mode: str, sizes: list[int] | tuple[int, ...], cfg: RunConfig
) -> BenchReport:
    """Time one attention path (or the whole model) at several window sizes.

    Sizes are visited round-robin within each repetition so slow drift
    hits all of them equally; per-size times are medians of 7 timed
    repetitions after 2 warmups, single-threaded. After the timing, each
    size's call runs once more, untimed, for its `traced_peak_bytes`. For
    end_to_end, size is the segment count l of a 4-entity model with
    lookback l*p and horizon 16. The shape (k, d, p, m) and the seed come
    from cfg; p and m shape only end_to_end.
    """
    k, d, p, m, seed = cfg.k, cfg.d, cfg.p, cfg.m, cfg.seed
    if mode not in SWEEP_MODES:
        raise ConfigError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    if k < 1 or d < 1:
        raise ConfigError(f"k and d must be >= 1, got k={k}, d={d}")
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 3:
        raise ConfigError(f"need at least 3 sizes to fit a slope, got {len(sizes)}")
    if min(sizes) < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"sizes must be positive and strictly ascending, got {sizes}")

    cases = []
    for l in sizes:
        rng = seed_stream(seed, f"bench-{mode}-l{l}")
        if mode == "end_to_end":
            hyper = HyperParams(
                p=p, d=d, m=m, k=k, lookback=l * p, horizon=16, n_entities=4
            )
            protos = PrototypeSet(rng.standard_normal((k, p)), alpha=0.2)
            params = init_params(hyper, protos, seed=seed)
            with allocating(f"size {l}"):
                x = rng.standard_normal((1, l * p, hyper.n_entities))
            cases.append((l, functools.partial(predict, params, x), count_forward_flops(hyper)))
            continue
        with allocating(f"size {l}"):
            segments = rng.standard_normal((l, d))
        weights = ProtoAttnWeights(*(rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)))
        if mode == "protoattn":
            # the kernel's cost does not depend on bucket occupancy
            indices = rng.integers(k, size=l)
            protos_emb = rng.standard_normal((k, d))
            fn = functools.partial(proto_attention, segments, indices, protos_emb, weights)
            cases.append((l, fn, count_flops(l, k, d)))
        else:
            fn = functools.partial(full_attention, segments, weights)
            cases.append((l, fn, count_flops_full(l, d)))

    times: dict[int, list[float]] = {l: [] for l in sizes}
    with _single_thread():
        for rep in range(WARMUP_REPS + TIMED_REPS):
            for l, fn, _ in cases:
                t0 = time.perf_counter()
                fn()
                t1 = time.perf_counter()
                if rep >= WARMUP_REPS:
                    times[l].append(t1 - t0)

    medians = [float(np.median(times[l])) for l in sizes]
    rows = tuple(
        BenchRow(mode, l, int(med * 1e9), flops, traced_peak_bytes(fn))
        for (l, fn, flops), med in zip(cases, medians)
    )
    return BenchReport(rows=rows, slopes={mode: _fit_slope(sizes, medians)})


def lowrank_error(segments: np.ndarray, protos: PrototypeSet, w: np.ndarray) -> float:
    """Relative error of prototype rows standing in for the segment matrix.

    Compares A C w to P w, where A maps each of the l segments to its
    assigned prototype row.
    """
    segments = np.asarray(segments, dtype=np.float64)
    approx = protos.prototypes[nearest(segments, protos)] @ w
    exact = segments @ w
    denom = float(np.linalg.norm(exact))
    err = float(np.linalg.norm(approx - exact))
    if denom < 1e-12:
        return 0.0 if err < 1e-12 else np.inf
    return err / denom


def _segment_matrix(rows: np.ndarray) -> SegmentMatrix:
    n = rows.shape[0]
    prov = np.stack([np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.int64)], axis=1)
    return SegmentMatrix(segments=rows, provenance=prov)


def lowrank_probe() -> tuple[float, ...]:
    """Median relative error of the prototype stand-in on rank-8 segments,
    one per prototype budget k = 4, 8, 16, 32.

    Each of 50 trials draws a random rank-8 (512, 32) segment matrix
    (orthonormal column span times a random mixing matrix) and a random
    probe vector, fits prototypes (alpha 0.2, 150 iterations) at each k,
    and measures lowrank_error. Larger prototype budgets should not hurt:
    medians are expected non-increasing in k.
    """
    k_values, r, l, p = (4, 8, 16, 32), 8, 512, 32
    errors: dict[int, list[float]] = {k: [] for k in k_values}
    for trial in range(50):
        rng = seed_stream(0, f"probe-{trial}")
        basis = np.linalg.qr(rng.standard_normal((l, r)))[0]
        rows = basis @ rng.standard_normal((r, p))
        w = rng.standard_normal(p)
        segs = _segment_matrix(rows)
        for k in k_values:
            protos = fit(segs, k, 0.2, max_iters=150, seed=trial)
            errors[k].append(lowrank_error(rows, protos, w))
    return tuple(float(np.median(errors[k])) for k in k_values)


def prototype_template_correlation(protos: PrototypeSet, templates: np.ndarray) -> float:
    """Mean over templates of the best Pearson correlation any prototype attains."""
    scores = []
    for t in templates:
        scores.append(max(pearson_corr(c, t) for c in protos.prototypes))
    return float(np.mean(scores))


def offline_ablation(
    dataset: TimeSeriesDataset,
    k: int,
    p: int,
    alphas: tuple[float, ...],
    templates: np.ndarray,
    seed: int = 0,
    max_iters: int = 200,
) -> tuple[float, ...]:
    """Fit prototypes on the train split once per alpha and score how well
    each fit recovers the planted templates (`prototype_template_correlation`).

    Everything except alpha is held identical across fits.
    """
    if dataset.split is None:
        raise ConfigError("dataset must be split before the ablation")
    train_vals = dataset.values[: dataset.split[0]]
    segs = segment(train_vals, p)
    return tuple(
        prototype_template_correlation(fit(segs, k, alpha, max_iters=max_iters, seed=seed), templates)
        for alpha in alphas
    )


def persistence_baseline(x: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat each window's final value across the horizon, (B, horizon, N)."""
    if x.ndim != 3:
        raise ConfigError(f"expected (batch, lookback, entities), got shape {x.shape}")
    return np.repeat(x[:, -1:, :], horizon, axis=1)
