#!/usr/bin/env python3
"""Ablation of the correlation term in prototype fitting.

Plants templates that reconstruction error alone struggles to tell apart
(mean-matched pairs of opposite shape), then fits prototypes with and
without the correlation objective over several seeds and scores how well
each run's prototypes correlate with the true templates.
"""

import argparse
import sys

import numpy as np

from focus_forecast.bench import offline_ablation
from focus_forecast.data import generate_synthetic, split_and_normalize


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds (0..n-1)")
    ap.add_argument("--entities", type=int, default=4)
    ap.add_argument("--steps", type=int, default=2400)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--sigma", type=float, default=0.1)
    ap.add_argument("--p", type=int, default=16)
    ap.add_argument("--alpha", type=float, default=0.2, help="correlation weight of the full objective")
    ap.add_argument("--max-iters", type=int, default=200)
    args = ap.parse_args(argv)

    print("seed,corr_with_term,corr_without,margin")
    wins = 0
    margins = []
    for seed in range(args.seeds):
        result = generate_synthetic(
            args.entities, args.steps, args.k, args.sigma, seed=seed,
            p=args.p, bank="mean_matched",
        )
        ds = split_and_normalize(result.dataset, (0.7, 0.1, 0.2))
        with_term, without = offline_ablation(
            ds, k=args.k, p=args.p, alphas=(args.alpha, 0.0),
            templates=result.templates, seed=seed, max_iters=args.max_iters,
        )
        margin = with_term - without
        margins.append(margin)
        wins += with_term >= without
        print(f"{seed},{with_term:.6f},{without:.6f},{margin:+.6f}")
    print(
        f"wins={wins}/{args.seeds} median_margin={float(np.median(margins)):+.6f}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
