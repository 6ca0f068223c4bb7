"""Command-line entry point.

Subcommands: synth, cluster, train, eval, forecast, bench, gradcheck.
Primary output is machine-readable (key=value lines or CSV) on stdout;
diagnostics go to stderr. Exit codes: 0 success, 1 validation failure,
2 I/O failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import SWEEP_MODES, BenchReport, scaling_sweep
from .clustering import FitMeta, PrototypeSet, fit
from .config import resolve_config
from .container import load_model, load_prototypes, save_model, save_prototypes
from .data import (
    TimeSeriesDataset,
    generate_synthetic,
    load_csv,
    make_windows,
    normalize_with,
    save_csv,
    segment,
    split_and_normalize,
)
from .errors import (
    ConfigError,
    ContainerError,
    NumericalError,
    ParseError,
    ShapeError,
)
from .model import HyperParams, forecast_window, init_params
from .training import evaluate, gradient_check, stack_windows, train
from .util import seed_stream

GRADCHECK_TOL = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit(2); flag misuse is a validation failure here
        raise ConfigError(message)


def _cfg(args, **flag_overrides):
    overrides = {k: v for k, v in flag_overrides.items() if v is not None}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return resolve_config(args.config, overrides)


def _diag(msg: str):
    print(msg, file=sys.stderr)


def cmd_synth(args) -> int:
    cfg = _cfg(args, p=args.p)
    result = generate_synthetic(
        n_entities=args.entities,
        n_steps=args.steps,
        k_true=args.k_true,
        noise_sigma=args.sigma,
        seed=cfg.seed,
        p=cfg.p,
        bank=args.bank.replace("-", "_"),
    )
    save_csv(args.out, result.dataset)
    sidecar = args.out + ".templates"
    save_prototypes(
        sidecar,
        PrototypeSet(result.templates, 0.0, FitMeta(0, float("nan"), cfg.seed)),
    )
    print(f"out={args.out}")
    print(f"templates={sidecar}")
    print(f"steps={args.steps}")
    print(f"entities={args.entities}")
    print(f"k_true={args.k_true}")
    print(f"p={cfg.p}")
    print(f"sigma={args.sigma}")
    print(f"seed={cfg.seed}")
    return 0


def cmd_cluster(args) -> int:
    cfg = _cfg(args, p=args.p, k=args.k, alpha=args.alpha)
    dataset = split_and_normalize(load_csv(args.data), cfg.ratio)
    train_vals = dataset.values[: dataset.split[0]]
    segs = segment(train_vals, cfg.p)
    protos = fit(
        segs,
        cfg.k,
        cfg.alpha,
        lr=cfg.cluster_lr,
        max_iters=cfg.cluster_max_iters,
        tol=cfg.cluster_tol,
        seed=cfg.seed,
    )
    save_prototypes(args.out, protos)
    print(f"k={protos.k}")
    print(f"p={protos.p}")
    print(f"alpha={protos.alpha}")
    print(f"segments={segs.n}")
    print(f"iterations={protos.fit_meta.iterations}")
    print(f"final_loss={protos.fit_meta.final_loss:.6f}")
    print(f"out={args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _cfg(args, lookback=args.lookback, horizon=args.horizon, d=args.d, m=args.m)
    dataset = split_and_normalize(load_csv(args.data), cfg.ratio)
    protos = load_prototypes(args.protos)
    hyper = HyperParams(
        p=protos.p,
        d=cfg.d,
        m=cfg.m,
        k=protos.k,
        lookback=cfg.lookback,
        horizon=cfg.horizon,
        n_entities=dataset.n_entities,
    )
    params, report = train(dataset, protos, hyper, cfg.optimizer(), log=_diag)
    save_model(args.out, params, norm_stats=dataset.norm_stats, ratio=cfg.ratio)
    for epoch, (tr, vl) in enumerate(zip(report.train_loss, report.val_loss), start=1):
        print(f"epoch={epoch} train_mse={tr:.6f} val_mse={vl:.6f}")
    print(f"best_epoch={report.best_epoch}")
    print(f"best_val={report.best_val:.6f}")
    print(f"test_mse={report.test_mse:.6f}")
    print(f"test_mae={report.test_mae:.6f}")
    print(f"out={args.out}")
    return 0


def _load_eval_dataset(args):
    params, (mean, std), ratio = load_model(args.model)
    raw = load_csv(args.data)
    if raw.n_entities != params.hyper.n_entities:
        raise ConfigError(
            f"model {args.model} expects {params.hyper.n_entities} entities, "
            f"data file {args.data} has {raw.n_entities}"
        )
    return params, normalize_with(raw, mean, std, ratio)


def cmd_eval(args) -> int:
    params, dataset = _load_eval_dataset(args)
    windows = make_windows(dataset, params.hyper.lookback, params.hyper.horizon, args.split)
    x, y = stack_windows(windows)
    mse_v, mae_v = evaluate(params, x, y)
    print(f"mse={mse_v:.6f} mae={mae_v:.6f}")
    print(f"split={args.split}")
    print(f"windows={len(windows)}")
    return 0


def cmd_forecast(args) -> int:
    params, dataset = _load_eval_dataset(args)
    lookback = params.hyper.lookback
    if dataset.n_steps < lookback:
        raise ConfigError(
            f"data file {args.data} has {dataset.n_steps} steps, "
            f"need at least the model lookback {lookback}"
        )
    window = dataset.values[-lookback:]
    batch = forecast_window(params, window, dataset.norm_stats)
    out_ds = TimeSeriesDataset(
        values=batch.denormalized.copy(), entity_names=dataset.entity_names
    )
    save_csv(args.out, out_ds)
    print(f"out={args.out}")
    print(f"horizon={params.hyper.horizon}")
    print(f"entities={dataset.n_entities}")
    return 0


def cmd_bench(args) -> int:
    cfg = _cfg(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ConfigError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}"
        ) from None
    modes = [mode.strip() for mode in args.mode.split(",")]
    for i, mode in enumerate(modes):
        if mode in modes[:i]:
            raise ConfigError(f"--mode lists {mode!r} more than once")
    reports = [scaling_sweep(mode, sizes, cfg) for mode in modes]
    merged = BenchReport(
        rows=tuple(row for r in reports for row in r.rows),
        slopes={mode: slope for r in reports for mode, slope in r.slopes.items()},
    )
    sys.stdout.write(merged.to_csv())
    return 0


def cmd_gradcheck(args) -> int:
    # small fixed geometry: 3 entities, 4 segments of length 4, k=4, d=8
    worst = 0.0
    for i in range(3):
        seed = args.seed + i
        hyper = HyperParams(p=4, d=8, m=2, k=4, lookback=16, horizon=4, n_entities=3)
        rng = seed_stream(seed, "gradcheck")
        protos = PrototypeSet(rng.standard_normal((hyper.k, hyper.p)), alpha=0.2)
        params = init_params(hyper, protos, seed=seed)
        x = rng.standard_normal((2, hyper.lookback, hyper.n_entities))
        y = rng.standard_normal((2, hyper.horizon, hyper.n_entities))
        rel = gradient_check(params, x, y)
        for name in sorted(rel):
            print(f"config={i} tensor={name} rel_err={rel[name]:.3e}")
            worst = max(worst, rel[name])
    ok = worst <= GRADCHECK_TOL
    print(f"max_rel_err={worst:.3e} ok={int(ok)}")
    if not ok:
        _diag(f"gradient check failed: max relative error {worst:.3e} > {GRADCHECK_TOL}")
    return 0 if ok else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="focus", description="Prototype-attention time series forecaster.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser, seed_required: bool = False):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument(
            "--seed", type=int, default=None, required=seed_required, help="run seed"
        )

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--entities", required=True, type=int)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--k-true", required=True, type=int, dest="k_true")
    p.add_argument("--sigma", required=True, type=float)
    p.add_argument("--p", type=int, default=None, help="template length")
    p.add_argument("--bank", choices=("smooth", "mean-matched"), default="smooth")
    common(p, seed_required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="fit prototypes on the train split")
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--out", required=True, help="prototype file path")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train the forecaster")
    p.add_argument("--data", required=True)
    p.add_argument("--protos", required=True, help="prototype file from cluster")
    p.add_argument("--lookback", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out", required=True, help="model file path")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on one partition")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", required=True, choices=("train", "val", "test"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forecast", help="forecast past the end of a series")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="forecast CSV path")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("bench", help="cost/scaling measurements")
    p.add_argument(
        "--mode", required=True, help=f"comma-separated subset of {', '.join(SWEEP_MODES)}"
    )
    p.add_argument("--sizes", required=True, help="comma-separated segment counts")
    common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--seed", type=int, required=True, help="base seed for the 3 configs")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ShapeError) as e:
        _diag(f"error: {e}")
        return 1
    except (ParseError, ContainerError, OSError) as e:
        _diag(f"error: {e}")
        return 2
    except NumericalError as e:
        _diag(f"error: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
