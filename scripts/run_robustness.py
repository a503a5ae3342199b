#!/usr/bin/env python3
"""Accuracy of relu vs shrinkage layers under growing feature noise.

Generates one binary-feature block-model dataset, applies Bernoulli flips
at each grid ratio, and trains both layer variants. Prints one JSON line
per result (noise_ratio, model, mean, std).

    python3 scripts/run_robustness.py --ratios 0,0.5,1,2 > robustness.jsonl
"""

import argparse
from dataclasses import replace

from ufg.datasets import BinaryFeatures, generate_sbm
from ufg.experiments import ExperimentConfig, train_node_classifier
from ufg.io import encode_json
from ufg.perturb import PerturbationSpec, perturb


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="100,100,100")
    ap.add_argument("--p-in", type=float, default=0.1)
    ap.add_argument("--p-out", type=float, default=0.01)
    ap.add_argument("--feature-dim", type=int, default=96)
    ap.add_argument("--data-seed", type=int, default=0)
    ap.add_argument("--perturb-seed", type=int, default=1)
    ap.add_argument("--ratios", default="0,0.5,1,2",
                    help="flip ratios relative to the nonzero entry count")
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--num-seeds", type=int, default=3)
    args = ap.parse_args()

    data = generate_sbm(
        [int(s) for s in args.sizes.split(",")],
        args.p_in, args.p_out,
        BinaryFeatures(dim=args.feature_dim),
        seed=args.data_seed,
    )
    base = ExperimentConfig(
        epochs=args.epochs, hidden=args.hidden,
        seeds=tuple(range(args.num_seeds)),
    )
    variants = {
        "relu": base,
        "shrinkage": replace(base, activation="shrinkage", sigma=args.sigma),
    }

    for ratio in (float(r) for r in args.ratios.split(",")):
        if ratio > 0:
            spec = PerturbationSpec(
                target="features", model="bernoulli_flip",
                value=ratio, seed=args.perturb_seed,
            )
            _, features = perturb(data.graph, data.features, spec)
            noisy = replace(data, features=features)
        else:
            noisy = data
        for model, cfg in variants.items():
            rec = train_node_classifier(noisy, cfg)
            print(encode_json({"noise_ratio": ratio, "model": model,
                               "mean": rec.mean, "std": rec.std}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
