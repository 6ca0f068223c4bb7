"""Benchmark harness: cost models, the rank probe, and the ablation."""

import tracemalloc

import numpy as np
import pytest

from focus_forecast import bench
from focus_forecast.bench import (
    TIMED_REPS,
    WARMUP_REPS,
    count_forward_flops,
    estimate_model_peak_bytes,
    estimate_peak_bytes,
    lowrank_error,
    offline_ablation,
    persistence_baseline,
    prototype_template_correlation,
    scaling_sweep,
)
from focus_forecast.clustering import PrototypeSet
from focus_forecast.data import generate_synthetic, split_and_normalize
from focus_forecast.errors import ConfigError
from focus_forecast.model import HyperParams, init_params, predict
from focus_forecast.optim import OptimizerConfig
from focus_forecast.protoattn import (
    AssignmentMatrix,
    ProtoAttnWeights,
    count_flops,
    count_flops_full,
    full_attention,
    proto_attention,
)


def hyper_at(l, n=4):
    return HyperParams(p=8, d=16, m=2, k=4, lookback=l * 8, horizon=8, n_entities=n)


# ------------------------------------------------------------ BLAS pinning


def test_single_thread_pins_openblas_without_threadpoolctl(monkeypatch):
    monkeypatch.setattr(bench, "threadpool_limits", None)
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


def test_peak_bytes_modes_and_validation():
    proto = estimate_peak_bytes(512, 16, 64, "proto")
    full = estimate_peak_bytes(512, 16, 64, "full")
    assert full > proto  # the l-by-l score matrix dominates at this size
    assert estimate_model_peak_bytes(hyper_at(8)) > 0
    with pytest.raises(ConfigError):
        estimate_peak_bytes(8, 2, 4, "banana")


@pytest.mark.parametrize(
    "hyper",
    [
        HyperParams(p=16, d=64, m=6, k=16, lookback=512, horizon=96, n_entities=7),  # ETTh1
        HyperParams(p=8, d=32, m=4, k=8, lookback=256, horizon=24, n_entities=3),
        HyperParams(p=24, d=64, m=8, k=16, lookback=96, horizon=24, n_entities=40),
    ],
)
def test_model_peak_estimate_within_2x_of_traced_peak(hyper):
    rng = np.random.default_rng(0)
    params = init_params(hyper, PrototypeSet(rng.standard_normal((hyper.k, hyper.p)), alpha=0.2))
    x = rng.standard_normal((1, hyper.lookback, hyper.n_entities))
    predict(params, x)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        predict(params, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0.5 <= estimate_model_peak_bytes(hyper) / peak <= 2.0


@pytest.mark.parametrize("mode", ["proto", "full"])
@pytest.mark.parametrize("l,k,d", [(512, 16, 64), (64, 4, 8), (100, 2, 128)])
def test_attention_peak_estimate_within_2x_of_traced_peak(mode, l, k, d):
    rng = np.random.default_rng(0)
    segs, protos_emb = rng.standard_normal((l, d)), rng.standard_normal((k, d))
    a = AssignmentMatrix(indices=rng.integers(k, size=l), k=k)
    w = ProtoAttnWeights(*(rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)))
    call = proto_attention if mode == "proto" else full_attention
    call(segs, a, protos_emb, w)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(segs, a, protos_emb, w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0.5 <= estimate_peak_bytes(l, k, d, mode) / peak <= 2.0


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
        scaling_sweep("warp", (8, 16, 32))
    with pytest.raises(ConfigError):
        scaling_sweep("protoattn", (8, 16))
    with pytest.raises(ConfigError):
        scaling_sweep("protoattn", (32, 16, 8))
    with pytest.raises(ConfigError):
        scaling_sweep("protoattn", (0, 16, 32))


def test_scaling_sweep_rows_and_csv():
    sizes = (8, 16, 32)
    report = scaling_sweep("protoattn", sizes, k=4, d=8, p=4)
    assert tuple(r.size for r in report.rows) == sizes
    for row in report.rows:
        assert row.experiment == "protoattn"
        assert row.median_ns > 0
        assert row.flops == count_flops(row.size, 4, 8, 4).total
        assert row.peak_bytes == estimate_peak_bytes(row.size, 4, 8, "proto")
    assert "protoattn" in report.slopes

    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "experiment,size,median_ns,flops,peak_bytes,slope"
    assert len(lines) == 1 + len(sizes)
    # slope only on the last row of the experiment
    assert lines[1].endswith(",") and lines[2].endswith(",")
    assert lines[3].split(",")[-1] != ""
    assert float(lines[3].split(",")[-1]) == pytest.approx(report.slopes["protoattn"][0], abs=1e-6)


def test_scaling_sweep_full_attn_uses_quadratic_cost_model():
    report = scaling_sweep("full_attn", (8, 16, 32), k=4, d=8, p=4)
    for row in report.rows:
        assert row.flops == count_flops_full(row.size, 8)


def test_scaling_sweep_end_to_end_runs():
    report = scaling_sweep("end_to_end", (2, 4, 6), k=4, d=8, p=4, m=2, n_entities=2, horizon=4)
    assert [r.size for r in report.rows] == [2, 4, 6]
    for row in report.rows:
        h = HyperParams(p=4, d=8, m=2, k=4, lookback=row.size * 4, horizon=4, n_entities=2)
        assert row.flops == count_forward_flops(h)


def test_rep_counts_are_sane():
    assert TIMED_REPS >= 5
    assert WARMUP_REPS >= 1


# -------------------------------------------------------------- ablation


def test_offline_ablation_rows(planted):
    ds, result = planted
    rows = offline_ablation(ds, k=4, p=16, alphas=(0.2, 0.0), templates=result.templates, max_iters=30)
    assert [r.alpha for r in rows] == [0.2, 0.0]
    for row in rows:
        assert row.protos.k == 4 and row.protos.p == 16
        assert -1.0 <= row.template_corr <= 1.0
        assert row.test_mse is None and row.test_mae is None


def test_offline_ablation_without_templates_or_split():
    result = generate_synthetic(2, 300, 2, 0.1, seed=3, p=8)
    with pytest.raises(ConfigError):
        offline_ablation(result.dataset, k=2, p=8)
    ds = split_and_normalize(result.dataset, (0.7, 0.1, 0.2))
    rows = offline_ablation(ds, k=2, p=8, alphas=(0.2,), max_iters=20)
    assert rows[0].template_corr is None


def test_offline_ablation_with_training():
    result = generate_synthetic(2, 300, 2, 0.1, seed=4, p=8)
    ds = split_and_normalize(result.dataset, (0.7, 0.1, 0.2))
    hyper = HyperParams(p=8, d=8, m=2, k=2, lookback=16, horizon=4, n_entities=2)
    opt = OptimizerConfig(max_epochs=2, batch_size=32, patience=2, seed=0)
    rows = offline_ablation(ds, k=2, p=8, alphas=(0.2,), max_iters=10, train_cfg=(hyper, opt))
    assert rows[0].test_mse is not None and rows[0].test_mse > 0
    assert rows[0].test_mae is not None and rows[0].test_mae > 0
