#!/usr/bin/env python3
"""Benchmark operator build and matrix-free transform across graph sizes.

Times the Chebyshev path on sparse random graphs at one and two levels,
prints per-size rows plus the level-doubling factor, and optionally writes
a plot-ready bench CSV.

    python3 scripts/run_bench.py --sizes 1000,2000,4000,8000 --reps 3
"""

import argparse

import numpy as np

from ufg.experiments import bench_transform
from ufg.io import emit_plot_data, encode_json


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="1000,2000,4000,8000")
    ap.add_argument("--avg-degree", type=float, default=1.5)
    ap.add_argument("--degree", type=int, default=5)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="bench CSV path (single-level rows)")
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    runs = {
        levels: bench_transform(
            sizes, avg_degree=args.avg_degree, levels=levels,
            degree=args.degree, repetitions=args.reps, seed=args.seed,
        )
        for levels in (1, 2)
    }
    for levels, rows in runs.items():
        for row in rows:
            print(encode_json(row))

    factors = [
        d["transform_mean_s"] / s["transform_mean_s"]
        for s, d in zip(runs[1], runs[2])
        if s.get("status") == "ok" and d.get("status") == "ok"
    ]
    if factors:
        print(encode_json(
            {"level_doubling_factor_median": float(np.median(factors)),
             "per_size": [round(f, 3) for f in factors]}
        ))

    if args.out:
        plot_rows = []
        for row in runs[1]:
            if row.get("status") != "ok":
                continue
            for series in ("build", "transform"):
                plot_rows.append({
                    "n": row["n"], "series": series,
                    "mean_s": row[f"{series}_mean_s"],
                    "median_s": row[f"{series}_median_s"],
                })
        emit_plot_data(plot_rows, "bench", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
