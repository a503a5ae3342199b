#!/usr/bin/env python3
"""Graph classification on cycles-vs-stars with all three pooling readouts.

Compares framelet sum and spectrum pooling against the mean-pool baseline
and prints one summary line per readout plus the majority-class floor.

    python3 scripts/run_graph_classification.py --num-per-class 100
"""

import argparse

from ufg.datasets import cycles_and_stars, sbm_graph_family
from ufg.experiments import (
    ExperimentConfig,
    majority_class_accuracy,
    train_graph_classifier,
)
from ufg.io import encode_json


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--task", choices=("cycles-stars", "sbm-family"),
                    default="cycles-stars")
    ap.add_argument("--num-per-class", type=int, default=100)
    ap.add_argument("--data-seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--patience", type=int, default=20)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--num-seeds", type=int, default=10)
    args = ap.parse_args()

    if args.task == "cycles-stars":
        samples = cycles_and_stars(args.num_per_class, seed=args.data_seed)
    else:
        samples = sbm_graph_family(args.num_per_class, seed=args.data_seed)
    print(encode_json(
        {"model": "majority", "mean": majority_class_accuracy(samples)}
    ))
    for mode in ("sum", "spectrum", "mean"):
        cfg = ExperimentConfig(
            task=args.task, pool_mode=mode, epochs=args.epochs,
            patience=args.patience, hidden=args.hidden,
            seeds=tuple(range(args.num_seeds)),
        )
        rec = train_graph_classifier(samples, cfg)
        print(encode_json(
            {"model": f"pool_{mode}", "mean": rec.mean, "std": rec.std,
             "per_seed": list(rec.per_seed)}
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
