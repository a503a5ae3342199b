#!/usr/bin/env python3
"""Accuracy sensitivity to the dilation factor and the number of levels.

Sweeps dilation at fixed levels, then levels at dilation 2, on one
block-model dataset. Prints one JSON line per grid point; ``--out`` also
writes a plot-ready sweep CSV (knob, value, mean, std). Failed grid points
are reported on stderr and skipped.

    python3 scripts/run_sensitivity.py --dilation-grid 1.5,2,3 --scale-grid 1-4
"""

import argparse
import sys

from ufg.datasets import GaussianFeatures, generate_sbm
from ufg.experiments import ExperimentConfig, sensitivity_sweep
from ufg.io import emit_plot_data, encode_json


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if "-" in tok[1:]:
            lo, hi = tok.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif tok:
            out.append(int(tok))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="100,100,100")
    ap.add_argument("--p-in", type=float, default=0.1)
    ap.add_argument("--p-out", type=float, default=0.01)
    ap.add_argument("--feature-dim", type=int, default=16)
    ap.add_argument("--feature-noise", type=float, default=0.3)
    ap.add_argument("--data-seed", type=int, default=0)
    ap.add_argument("--dilation-grid", default="1.25,1.5,2,2.5,3,4")
    ap.add_argument("--scale-grid", default="1-4")
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--num-seeds", type=int, default=3)
    ap.add_argument("--out", help="sweep CSV path")
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
    rows = sensitivity_sweep(
        data, _floats(args.dilation_grid), _ints(args.scale_grid), base
    )
    ok_rows = [r for r in rows if "error" not in r]
    for row in rows:
        if "error" in row:
            print(f"point {row['knob']}={row['value']} failed: {row['error']}",
                  file=sys.stderr)
    if not ok_rows:
        print("every sweep point failed", file=sys.stderr)
        return 2
    for row in ok_rows:
        print(encode_json(row))
    if args.out:
        emit_plot_data(ok_rows, "sweep", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
