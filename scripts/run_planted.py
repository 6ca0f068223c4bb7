#!/usr/bin/env python3
"""Planted-template experiment, end to end.

Generates a synthetic multivariate series from k hidden templates, fits
prototypes on the train split, trains the forecaster, and reports test
metrics against the repeat-last-value persistence baseline, plus how well
the prototypes recovered the generating templates.
"""

import argparse
import sys

from focus_forecast.bench import (
    persistence_baseline,
    prototype_template_correlation,
)
from focus_forecast.clustering import fit
from focus_forecast.data import generate_synthetic, make_windows, segment, split_and_normalize
from focus_forecast.model import HyperParams
from focus_forecast.optim import OptimizerConfig
from focus_forecast.training import mae, mse, stack_windows, train


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--entities", type=int, default=4)
    ap.add_argument("--steps", type=int, default=2400)
    ap.add_argument("--k", type=int, default=4, help="templates planted and prototypes fit")
    ap.add_argument("--sigma", type=float, default=0.05)
    ap.add_argument("--p", type=int, default=16)
    ap.add_argument("--alpha", type=float, default=0.2)
    ap.add_argument("--lookback", type=int, default=64)
    ap.add_argument("--horizon", type=int, default=16)
    ap.add_argument("--d", type=int, default=16)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    result = generate_synthetic(args.entities, args.steps, args.k, args.sigma, seed=args.seed, p=args.p)
    ds = split_and_normalize(result.dataset, (0.7, 0.1, 0.2))

    protos = fit(
        segment(ds.values[: ds.split[0]], args.p),
        args.k,
        args.alpha,
        max_iters=200,
        seed=args.seed,
    )
    raw_protos = fit(
        segment(result.dataset.values, args.p),
        args.k,
        args.alpha,
        max_iters=200,
        seed=args.seed,
    )
    corr = prototype_template_correlation(raw_protos, result.templates)

    hyper = HyperParams(
        p=args.p, d=args.d, m=args.m, k=args.k,
        lookback=args.lookback, horizon=args.horizon, n_entities=args.entities,
    )
    opt = OptimizerConfig(max_epochs=args.epochs, batch_size=32, patience=5, seed=args.seed)
    _params, report = train(ds, protos, hyper, opt, log=lambda s: print(s, file=sys.stderr))

    x_test, y_test = stack_windows(make_windows(ds, args.lookback, args.horizon, "test"))
    base = persistence_baseline(x_test, args.horizon)

    print(f"template_corr={corr:.4f}")
    print(f"epochs={report.epochs} best_epoch={report.best_epoch} best_val={report.best_val:.6f}")
    print(f"model_test_mse={report.test_mse:.6f} model_test_mae={report.test_mae:.6f}")
    print(f"persistence_mse={mse(base, y_test):.6f} persistence_mae={mae(base, y_test):.6f}")
    print(f"mse_ratio={report.test_mse / mse(base, y_test):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
