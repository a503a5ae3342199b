#!/usr/bin/env python3
"""Denoise a smooth path-graph signal across a threshold grid.

Builds one exact framelet operator, draws seeded Gaussian noise at a fixed
fraction of the signal RMS, then reports per-sigma MSE against the clean
signal, averaged over seeds, as one JSON line per sigma on stdout.

    python3 scripts/run_denoise.py --nodes 200 --seeds 20 > mse.jsonl
"""

import argparse

import numpy as np

from ufg.datasets import path_graph
from ufg.experiments import denoise_signal
from ufg.io import encode_json
from ufg.transform import framelet_operator


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=200)
    ap.add_argument("--cycles", type=float, default=3.0,
                    help="full sine periods across the path")
    ap.add_argument("--noise", type=float, default=0.5,
                    help="noise std as a fraction of signal RMS")
    ap.add_argument("--levels", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--sigmas", default="0.5,1,2,4")
    args = ap.parse_args()

    graph = path_graph(args.nodes)
    op = framelet_operator(graph, levels=args.levels, mode="exact")

    truth = np.sin(2.0 * np.pi * args.cycles * np.arange(args.nodes) / args.nodes)
    noise_std = args.noise * np.sqrt(np.mean(truth**2))
    sigmas = [float(s) for s in args.sigmas.split(",")]

    mses = {s: [] for s in sigmas}
    noisy_mses = []
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        noisy = truth + noise_std * rng.normal(size=args.nodes)
        noisy_mses.append(float(np.mean((noisy - truth) ** 2)))
        for s in sigmas:
            _, report = denoise_signal(op, noisy, sigma=s, truth=truth)
            mses[s].append(report["mse_denoised"])

    baseline = float(np.mean(noisy_mses))
    rows = [{"sigma": 0.0, "mse": baseline, "ratio_vs_noisy": 1.0}]
    for s in sigmas:
        mean_mse = float(np.mean(mses[s]))
        rows.append(
            {"sigma": s, "mse": mean_mse, "ratio_vs_noisy": mean_mse / baseline}
        )
    for row in rows:
        print(encode_json(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
