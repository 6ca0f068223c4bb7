"""Benchmark harness: cost models, traced peaks, the rank probe, and the ablation."""

import numpy as np
import pytest

from focus_forecast import bench
from focus_forecast.bench import (
    SWEEP_MODES,
    TIMED_REPS,
    WARMUP_REPS,
    count_forward_flops,
    lowrank_error,
    offline_ablation,
    persistence_baseline,
    prototype_template_correlation,
    scaling_sweep,
    traced_peak_bytes,
)
from focus_forecast.clustering import PrototypeSet, fit
from focus_forecast.config import RunConfig
from focus_forecast.data import generate_synthetic, segment
from focus_forecast.errors import ConfigError
from focus_forecast.model import HyperParams
from focus_forecast.protoattn import count_flops, count_flops_full


def hyper_at(l, n=4):
    return HyperParams(p=8, d=16, m=2, k=4, lookback=l * 8, horizon=8, n_entities=n)


# ------------------------------------------------------------ BLAS pinning


def test_single_thread_pins_openblas_and_restores_it():
    fns = bench._openblas_threads()
    if fns is None:
        pytest.skip("numpy is not linked against a loadable OpenBLAS")
    get, set_ = fns
    before = get()
    try:
        set_(2)
        with bench._single_thread():
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)


# ------------------------------------------------------------ cost model


def test_forward_flops_affine_in_segment_count():
    f = [count_forward_flops(hyper_at(l)) for l in (4, 8, 12, 16)]
    diffs = np.diff(f)
    assert diffs[0] == diffs[1] == diffs[2]
    assert all(d > 0 for d in diffs)


def test_forward_flops_affine_in_entities():
    f = [
        count_forward_flops(HyperParams(p=8, d=16, m=2, k=4, lookback=64, horizon=8, n_entities=n))
        for n in (2, 4, 6)
    ]
    assert f[2] - f[1] == f[1] - f[0]
    assert f[1] > f[0] > 0


def test_forward_flops_at_a_small_geometry():
    # p=2, d=3, k=4, m=1, l=3, N=2, horizon=2, so n = N*l = 6 segments, w = 2p = 4.
    # assignment: 2*n*k*p + 2*n*p = 96 + 24 -> 120
    # per branch: weight products 2*k*p*d + 2*k*d^2 + 2*p*d^2 = 48 + 72 + 36 = 156,
    #   W's means, centring and gain 3*w*d = 36, gram w^2*d = 48, keys m*d*w = 12 -> 252;
    #   per segment scores k*p + contexts k*p + u G w^2 + row dot w + readout 2*m*w
    #   = 8 + 8 + 16 + 4 + 8 = 44, times n -> 264;
    #   per entity readout map m*w*d + bias m*d = 12 + 3 = 15, times N -> 30; total 546
    # gate: N*(m*(2*d^2 + d) + 2*m*d) = 2*(21 + 6) = 54
    # head: N*(m*d*horizon + horizon) = 2*(6 + 2) = 16
    h = HyperParams(p=2, d=3, m=1, k=4, lookback=6, horizon=2, n_entities=2)
    assert count_forward_flops(h) == 120 + 2 * 546 + 54 + 16


# --------------------------------------------------------------- helpers


def test_persistence_baseline_repeats_last_row():
    x = np.random.default_rng(0).standard_normal((3, 10, 2))
    out = persistence_baseline(x, 4)
    assert out.shape == (3, 4, 2)
    for h in range(4):
        np.testing.assert_array_equal(out[:, h, :], x[:, -1, :])
    with pytest.raises(ConfigError):
        persistence_baseline(x[0], 4)


def test_lowrank_error_zero_when_prototypes_are_the_segments():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((6, 5))
    protos = PrototypeSet(rows.copy(), alpha=0.2)
    assert lowrank_error(rows, protos, rng.standard_normal(5)) == 0.0


def test_lowrank_error_known_value():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    protos = PrototypeSet(np.array([[1.0, 0.0]]), alpha=0.0)
    w = np.array([1.0, 0.0])
    # exact = [1, 0]; approx maps both rows to [1,0]w = [1, 1]
    assert lowrank_error(rows, protos, w) == pytest.approx(1.0)


def test_lowrank_error_zero_denominator_guard():
    rows = np.zeros((3, 4))
    protos = PrototypeSet(np.zeros((1, 4)), alpha=0.0)
    assert lowrank_error(rows, protos, np.ones(4)) == 0.0
    protos2 = PrototypeSet(np.ones((1, 4)), alpha=0.0)
    assert lowrank_error(rows, protos2, np.ones(4)) == np.inf


def test_prototype_template_correlation_perfect_and_scaled():
    rng = np.random.default_rng(2)
    templates = rng.standard_normal((3, 8))
    protos = PrototypeSet(templates * 2.5 + 1.0, alpha=0.2)  # affine copies
    assert prototype_template_correlation(protos, templates) == pytest.approx(1.0)
    # one flipped prototype against one template: best (only) match is -1
    anti = PrototypeSet(-templates[:1], alpha=0.2)
    assert prototype_template_correlation(anti, templates[:1]) == pytest.approx(-1.0)


# ----------------------------------------------------------------- sweep


def test_scaling_sweep_validation():
    with pytest.raises(ConfigError):
        scaling_sweep("warp", (8, 16, 32), RunConfig())
    with pytest.raises(ConfigError):
        scaling_sweep("protoattn", (8, 16), RunConfig())
    with pytest.raises(ConfigError):
        scaling_sweep("protoattn", (32, 16, 8), RunConfig())
    with pytest.raises(ConfigError):
        scaling_sweep("protoattn", (0, 16, 32), RunConfig())
    with pytest.raises(ConfigError):  # a repeated size would pool two cases' timings
        scaling_sweep("protoattn", (8, 8, 16), RunConfig())
    for mode in SWEEP_MODES:
        for k, d in ((0, 8), (4, 0)):
            with pytest.raises(ConfigError):
                scaling_sweep(mode, (8, 16, 32), RunConfig(k=k, d=d, p=4, m=2))


def test_scaling_sweep_rows_and_csv():
    sizes = (8, 16, 32)
    report = scaling_sweep("protoattn", sizes, RunConfig(k=4, d=8))
    assert tuple(r.size for r in report.rows) == sizes
    for row in report.rows:
        assert row.experiment == "protoattn"
        assert row.median_ns > 0
        assert row.flops == count_flops(row.size, 4, 8)
        assert row.peak_bytes > 0
    assert "protoattn" in report.slopes

    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "experiment,size,median_ns,flops,peak_bytes,slope"
    assert len(lines) == 1 + len(sizes)
    # slope only on the last row of the experiment
    assert lines[1].endswith(",") and lines[2].endswith(",")
    assert lines[3].split(",")[-1] != ""
    assert float(lines[3].split(",")[-1]) == pytest.approx(report.slopes["protoattn"], abs=1e-6)


def test_scaling_sweep_full_attn_uses_quadratic_cost_model():
    report = scaling_sweep("full_attn", (8, 16, 32), RunConfig(k=4, d=8))
    for row in report.rows:
        assert row.flops == count_flops_full(row.size, 8)


def test_scaling_sweep_end_to_end_runs():
    report = scaling_sweep("end_to_end", (2, 4, 6), RunConfig(k=4, d=8, p=4, m=2))
    assert [r.size for r in report.rows] == [2, 4, 6]
    for row in report.rows:
        h = HyperParams(p=4, d=8, m=2, k=4, lookback=row.size * 4, horizon=16, n_entities=4)
        assert row.flops == count_forward_flops(h)
        assert row.peak_bytes > 0


def test_traced_peak_bytes_sees_a_temporary_array():
    # a 1 MiB buffer that is freed before the call returns still sets the peak
    peak = traced_peak_bytes(lambda: np.ones(1 << 17).sum())
    assert 1 << 20 <= peak < (1 << 20) + (1 << 16)


def test_scaling_sweep_peaks_grow_linearly_for_prototypes_and_quadratically_for_full():
    sizes = (128, 256, 512)

    def peaks(mode):
        return [row.peak_bytes for row in scaling_sweep(mode, sizes, RunConfig(k=4, d=8)).rows]

    proto, full = peaks("protoattn"), peaks("full_attn")
    for small, large in zip(proto, proto[1:]):
        assert large <= 2.5 * small, proto
    for small, large in zip(full, full[1:]):
        assert large >= 3.0 * small, full
    for mode, first in (("protoattn", proto), ("full_attn", full)):
        for a, b in zip(first, peaks(mode)):
            assert abs(a - b) <= 0.01 * a, (mode, first)


def test_rep_counts_are_sane():
    assert TIMED_REPS >= 5
    assert WARMUP_REPS >= 1


# -------------------------------------------------------------- ablation


def test_offline_ablation_rows(planted):
    ds, result = planted
    corrs = offline_ablation(ds, k=4, p=16, alphas=(0.2, 0.0), templates=result.templates, max_iters=30)
    segs = segment(ds.values[: ds.split[0]], 16)
    for alpha, corr in zip((0.2, 0.0), corrs, strict=True):
        protos = fit(segs, 4, alpha, max_iters=30, seed=0)
        assert corr == prototype_template_correlation(protos, result.templates)
        assert -1.0 <= corr <= 1.0


def test_offline_ablation_requires_split():
    result = generate_synthetic(2, 300, 2, 0.1, seed=3, p=8)
    with pytest.raises(ConfigError):
        offline_ablation(result.dataset, k=2, p=8, alphas=(0.2,), templates=result.templates)
