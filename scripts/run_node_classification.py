#!/usr/bin/env python3
"""Node classification on a stochastic block model: relu vs shrinkage layers.

Trains the relu variant once, then the shrinkage variant at each sigma on
the grid. Prints one JSON line per result; ``--out`` also writes the
accuracy/compression trade-off as a plot-ready CSV.

    python3 scripts/run_node_classification.py --epochs 200 --out tradeoff.csv
"""

import argparse
from dataclasses import replace

from ufg.datasets import GaussianFeatures, generate_sbm
from ufg.experiments import ExperimentConfig, train_node_classifier
from ufg.io import emit_plot_data, encode_json


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="100,100,100")
    ap.add_argument("--p-in", type=float, default=0.1)
    ap.add_argument("--p-out", type=float, default=0.01)
    ap.add_argument("--feature-dim", type=int, default=16)
    ap.add_argument("--feature-noise", type=float, default=0.3)
    ap.add_argument("--data-seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--num-seeds", type=int, default=10)
    ap.add_argument("--sigma-grid", default="0.5,1,2,4")
    ap.add_argument("--out", help="trade-off curve CSV path")
    args = ap.parse_args()

    data = generate_sbm(
        [int(s) for s in args.sizes.split(",")],
        args.p_in, args.p_out,
        GaussianFeatures(args.feature_dim, noise_std=args.feature_noise),
        seed=args.data_seed,
    )
    base = ExperimentConfig(
        epochs=args.epochs, hidden=args.hidden,
        seeds=tuple(range(args.num_seeds)),
    )

    relu = train_node_classifier(data, base)
    print(encode_json({"model": "relu", "mean": relu.mean, "std": relu.std}))

    rows = []
    for sigma in (float(s) for s in args.sigma_grid.split(",")):
        cfg = replace(base, activation="shrinkage", sigma=sigma)
        rec = train_node_classifier(data, cfg)
        row = {
            "sigma": sigma,
            "compression_ratio": rec.extra.get("compression_ratio", 1.0),
            "accuracy_mean": rec.mean,
            "accuracy_std": rec.std,
        }
        rows.append(row)
        print(encode_json(row))
    if args.out:
        emit_plot_data(rows, "tradeoff_curve", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
