"""Acceptance gate: one test per claimed behavior, run at full strength.

Each test prints a single machine-greppable line
``ACCEPTANCE <n> <slug>: PASS|FAIL (<detail>)`` before asserting, so a
plain ``pytest -v tests/test_acceptance.py`` yields one verdict line per
criterion. Protocols, sizes, and tolerances are spelled out inline; the
suite as a whole is the contract for the package.
"""

import os
import time

import numpy as np
import pytest

from focus_forecast.bench import (
    lowrank_error,
    lowrank_probe,
    offline_ablation,
    persistence_baseline,
    scaling_sweep,
)
from focus_forecast.clustering import PrototypeSet, fit
from focus_forecast.config import RunConfig
from focus_forecast.data import (
    generate_synthetic,
    make_windows,
    segment,
    split_and_normalize,
)
from focus_forecast.model import HyperParams, init_params
from focus_forecast.optim import OptimizerConfig
from focus_forecast.protoattn import (
    ProtoAttnWeights,
    count_flops,
    full_attention,
    proto_attention,
)
from focus_forecast.training import gradient_check, mae, mse, stack_windows, train
from focus_forecast.util import seed_stream


def report(n, slug, ok, detail):
    line = f"ACCEPTANCE {n} {slug}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_gradient_check():
    """Analytic gradients match central differences to 1e-4 on three
    seeded small configurations, in under a minute."""
    t0 = time.perf_counter()
    worst = 0.0
    hyper = HyperParams(p=4, d=8, m=2, k=4, lookback=16, horizon=4, n_entities=3)
    for seed in (0, 1, 2):
        rng = seed_stream(seed, "gradcheck")
        protos = PrototypeSet(rng.standard_normal((hyper.k, hyper.p)), alpha=0.2)
        params = init_params(hyper, protos, seed=seed)
        x = rng.standard_normal((2, hyper.lookback, hyper.n_entities))
        y = rng.standard_normal((2, hyper.horizon, hyper.n_entities))
        worst = max(worst, max(gradient_check(params, x, y).values()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    line = report(1, "gradient check", ok, f"max_rel_err={worst:.3e} wall={elapsed:.1f}s")
    assert ok, line


def test_criterion_2_bucket_row_equality():
    """Segments assigned to the same prototype receive bit-identical
    attention output rows, across 1000 randomized cases."""
    failures = 0
    for case in range(1000):
        rng = np.random.default_rng(20_000 + case)
        l = int(rng.integers(2, 41))
        k = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        segs = rng.standard_normal((l, d))
        protos_emb = rng.standard_normal((k, d))
        idx = rng.integers(k, size=l)
        weights = ProtoAttnWeights(*(rng.standard_normal((d, d)) for _ in range(4)))
        out = proto_attention(segs, idx, protos_emb, weights)
        for b in range(k):
            rows = out[idx == b]
            if rows.shape[0] > 1 and not np.all(rows == rows[0]):
                failures += 1
                break
    ok = failures == 0
    line = report(2, "bucket row equality", ok, f"failures={failures}/1000")
    assert ok, line


def test_criterion_3_exact_oracle_equivalence():
    """When every segment equals its assigned prototype verbatim, the
    linear kernel reproduces full per-segment self-attention to 1e-6."""
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(30_000 + case)
        l = int(rng.integers(2, 33))
        k = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        protos_emb = rng.standard_normal((k, d))
        idx = rng.integers(k, size=l)
        segs = protos_emb[idx]
        weights = ProtoAttnWeights(*(rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)))
        diff = np.max(
            np.abs(
                proto_attention(segs, idx, protos_emb, weights) - full_attention(segs, weights)
            )
        )
        worst = max(worst, float(diff))
    ok = worst <= 1e-6
    line = report(3, "exact-oracle equivalence", ok, f"max_abs_diff={worst:.3e} over 100 cases")
    assert ok, line


def test_criterion_4_linear_scaling():
    """Analytic cost is exactly affine in the segment count, and measured
    wall time scales ~linearly for the prototype kernel versus
    ~quadratically for the full-attention reference."""
    t0 = time.perf_counter()
    k, d = 16, 64
    ls = (256, 512, 1024)
    f = [count_flops(l, k, d) for l in ls]
    # collinear <=> equal slopes between consecutive (l, flops) points;
    # cross-multiplied so the check is exact in integers
    cross = (f[2] - f[1]) * (ls[1] - ls[0]) - (f[1] - f[0]) * (ls[2] - ls[1])
    resid = abs(cross) / ((ls[2] - ls[1]) * (ls[1] - ls[0]))
    # the slope is fitted over the three largest sizes, l=1024..4096, where
    # one call (~1-7 ms) dwarfs the kernel's fixed cost (~0.3 ms at l=256).
    # A sweep takes well under a second, so one burst of contention on a
    # shared host can skew all of its repetitions and so its slope (1.6-1.9
    # seen); the median over independent sweeps outvotes such a sweep.
    def slope(mode, sizes, sweeps):
        return float(np.median(
            [scaling_sweep(mode, sizes, RunConfig(k=k, d=d)).slopes[mode] for _ in range(sweeps)]
        ))

    proto_slope = slope("protoattn", (512, 1024, 2048, 4096), 5)
    full_slope = slope("full_attn", (256, 512, 1024, 2048), 3)
    elapsed = time.perf_counter() - t0
    ok = (
        resid <= 1e-9
        and 0.8 <= proto_slope <= 1.2
        and 1.7 <= full_slope <= 2.3
        and elapsed < 300.0
    )
    line = report(
        4,
        "linear scaling",
        ok,
        f"flop_collinearity_resid={resid} proto_slope={proto_slope:.3f} "
        f"full_slope={full_slope:.3f} wall={elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_planted_recovery():
    """On planted data (k_true = k = 4, sigma = 0.05), fitting always
    reduces the clustering loss and every learned prototype lands within
    3 sigma RMS of its nearest generating template, for 20 seeds."""
    sigma = 0.05
    descent_failures = 0
    worst_rms = 0.0
    for seed in range(20):
        result = generate_synthetic(4, 2400, 4, sigma, seed=seed)
        segs = segment(result.dataset.values, 16)
        init = fit(segs, 4, 0.2, max_iters=0, seed=seed)
        fitted = fit(segs, 4, 0.2, seed=seed)
        if not fitted.fit_meta.final_loss < init.fit_meta.final_loss:
            descent_failures += 1
        for c in fitted.prototypes:
            rms = min(
                float(np.sqrt(np.mean((c - t) ** 2))) for t in result.templates
            )
            worst_rms = max(worst_rms, rms)
    ok = descent_failures == 0 and worst_rms <= 3 * sigma
    line = report(
        5,
        "planted recovery",
        ok,
        f"descent_failures={descent_failures}/20 worst_rms={worst_rms:.4f} "
        f"limit={3 * sigma}",
    )
    assert ok, line


def test_criterion_6_lowrank_approximation():
    """The prototype stand-in is exact in the degenerate corners and its
    median relative error shrinks as the prototype budget grows."""
    rng = np.random.default_rng(0)
    # corner: segments drawn verbatim from k distinct rows
    rows = rng.standard_normal((6, 12))
    segs = rows[rng.integers(6, size=60)]
    err_distinct = lowrank_error(segs, PrototypeSet(rows, alpha=0.2), rng.standard_normal(12))
    # corner: one prototype per segment (k = l)
    own = rng.standard_normal((10, 8))
    err_identity = lowrank_error(own, PrototypeSet(own.copy(), alpha=0.2), rng.standard_normal(8))

    med = lowrank_probe()
    inversions = sum(1 for a, b in zip(med, med[1:]) if b > a + 1e-12)
    ok = err_distinct <= 1e-9 and err_identity <= 1e-9 and inversions <= 1
    line = report(
        6,
        "low-rank approximation",
        ok,
        f"corner_errs=({err_distinct:.1e},{err_identity:.1e}) "
        f"medians={[round(m, 5) for m in med]} inversions={inversions}",
    )
    assert ok, line


def test_criterion_7_beats_persistence(planted):
    """The trained forecaster beats the repeat-last-value baseline by at
    least 20% test MSE on planted data, within 50 epochs and 10 minutes."""
    t0 = time.perf_counter()
    ds, _result = planted
    train_vals = ds.values[: ds.split[0]]
    protos = fit(segment(train_vals, 16), 4, 0.2, max_iters=200, seed=0)
    hyper = HyperParams(p=16, d=16, m=4, k=4, lookback=64, horizon=16, n_entities=4)
    opt = OptimizerConfig(max_epochs=20, batch_size=32, patience=5, seed=0)
    _params, rep = train(ds, protos, hyper, opt)

    x_test, y_test = stack_windows(make_windows(ds, hyper.lookback, hyper.horizon, "test"))
    pers_mse = mse(persistence_baseline(x_test, hyper.horizon), y_test)
    elapsed = time.perf_counter() - t0
    ratio = rep.test_mse / pers_mse
    ok = ratio <= 0.8 and rep.epochs <= 50 and elapsed < 600.0
    line = report(
        7,
        "beats persistence",
        ok,
        f"model_mse={rep.test_mse:.4f} persistence_mse={pers_mse:.4f} "
        f"ratio={ratio:.3f} epochs={rep.epochs} wall={elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_8_correlation_objective_helps():
    """On planted data built from mean-matched, shape-distinct templates,
    adding the correlation term recovers template shapes at least as well
    as reconstruction alone in >= 8 of 10 seeds."""
    wins = 0
    margins = []
    for seed in range(10):
        result = generate_synthetic(4, 2400, 4, 0.1, seed=seed, bank="mean_matched")
        ds = split_and_normalize(result.dataset, (0.7, 0.1, 0.2))
        with_corr, without = offline_ablation(
            ds, k=4, p=16, alphas=(0.2, 0.0), templates=result.templates, seed=seed,
            max_iters=200,
        )
        margins.append(with_corr - without)
        if with_corr >= without:
            wins += 1
    ok = wins >= 8
    line = report(
        8,
        "correlation objective helps",
        ok,
        f"wins={wins}/10 median_margin={float(np.median(margins)):.4f}",
    )
    assert ok, line


ETTH1_PATH = os.environ.get("FOCUS_ETTH1_CSV", os.path.join("data", "ETTh1.csv"))


@pytest.mark.xfail(strict=False, reason="stretch benchmark; does not gate acceptance")
def test_criterion_9_etth1_stretch():
    """Stretch goal on the public ETTh1 hourly benchmark: lookback 512,
    horizon 96, d=64, m=6 reaches test MSE and MAE <= 0.45 in <= 2 hours.
    Skips when the dataset is not present (offline sandbox)."""
    if not os.path.exists(ETTH1_PATH):
        print("ACCEPTANCE 9 etth1 stretch: SKIP (dataset not available)")
        pytest.skip(f"ETTh1 csv not found at {ETTH1_PATH}; set FOCUS_ETTH1_CSV")

    import csv

    from focus_forecast.data import TimeSeriesDataset

    t0 = time.perf_counter()
    with open(ETTH1_PATH, newline="", encoding="utf-8") as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        drop_first = header and header[0].strip().lower() == "date"
        names = header[1:] if drop_first else header
        values = [[float(v) for v in (row[1:] if drop_first else row)] for row in rdr]
    ds = TimeSeriesDataset(values=np.asarray(values), entity_names=tuple(names))
    ds = split_and_normalize(ds, (0.6, 0.2, 0.2))

    protos = fit(
        segment(ds.values[: ds.split[0]], 16), 16, 0.2, max_iters=300, seed=0
    )
    hyper = HyperParams(
        p=16, d=64, m=6, k=16, lookback=512, horizon=96, n_entities=ds.n_entities
    )
    opt = OptimizerConfig(lr=1e-3, max_epochs=50, batch_size=32, patience=5, seed=0)
    _params, rep = train(ds, protos, hyper, opt)
    elapsed = time.perf_counter() - t0
    ok = rep.test_mse <= 0.45 and rep.test_mae <= 0.45 and elapsed <= 7200.0
    line = report(
        9,
        "etth1 stretch",
        ok,
        f"mse={rep.test_mse:.4f} mae={rep.test_mae:.4f} wall={elapsed:.0f}s",
    )
    assert ok, line
