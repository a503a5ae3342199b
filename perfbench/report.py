"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/report.py --seed 0 --seconds 15

Run it from the root of a checkout. Each workload runs in its own process,
once untraced and once traced, so peak memory belongs to that workload
alone. The report prints the provenance, the seven end-to-end metrics, the
per-layer metrics of the traced pass and every correctness gate, and checks
that the layer self times account for the step time. It exits with code 1
when a gate fails or a run does not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES, result_path
from spans import STEP_TIME_METRICS

RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{name} trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(result_path(name, seed, trace, smoke=False).read_text())


def print_workload(untraced: dict, traced: dict) -> bool:
    """Print one workload's results; True when every gate passed in both runs."""
    prov, info = untraced["provenance"], untraced["info"]
    print(f"== {untraced['workload']} (seed {prov['seed']}) ==")
    print(f"provenance: commit {prov['commit']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, blas {prov['blas']} "
          f"({prov['blas_threads']} thread), nproc {prov['nproc']}, cpu {prov['cpu']}")
    print(f"sizes: {prov['sizes']}")
    print(f"params: {prov['params']}")
    notes = {
        "setup_s": f"median of {info['passes']} set-ups",
        "run_s": f"median of {info['passes']} passes",
        "step_s.p50": f"{info['steps']} steps",
        "step_s.tail": f"p{info['tail_percentile']:g} of each pass, median of {info['passes']} passes",
    }
    wall = untraced["wall"]
    ref = prov["reference"]
    print(f"  times in reference seconds (wall time as read in brackets); "
          f"{ref['samples']} samples of the {ref['kernel']} kernel, "
          f"median slowness {ref['slowness']['median']:.4g}")
    for name, m in untraced["end_to_end"].items():
        read = f"(wall {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:<28} {m['value']:<14.6g} {m['unit']:<6} {read:<18} {notes.get(name, '')}")
    print(f"  {'failed_frac':<28} {untraced['failed_frac']:<14.6g} {'ratio':<6} "
          f"{untraced['failed']}/{untraced['attempted']} operations")
    layers = traced["per_layer"]
    for name, m in layers.items():
        print(f"  {name:<28} {m['value']:<14.6g} {m['unit']}")
    accounted = sum(layers[k]["value"] for k in STEP_TIME_METRICS)
    # Self times are wall times: compare them with the wall step time of
    # the traced process's own untraced passes.
    p50 = traced["wall"]["step_s.p50"]
    overhead = layers["trace.overhead_frac"]["value"]
    print(f"  layer self times per step sum to {accounted:.6g} s: "
          f"{accounted / p50 - 1:+.3f} of untraced wall step_s.p50 {p50:.6g} s "
          f"(trace.overhead_frac {overhead:+.3f})")
    ok = True
    for run in (untraced, traced):
        for g in run["gates"]:
            print(f"  gate {g['gate']} (trace {run['trace']}): "
                  f"{'ok' if g['ok'] else 'FAILED'}: {g['detail']}")
        for f in run["failures"]:
            print(f"  failure (trace {run['trace']}): {f}")
        ok = ok and run["failed"] == 0
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    ok = True
    for name in WORKLOAD_NAMES:
        runs = [run_workload(name, args.seed, args.seconds, t) for t in (0, 1)]
        if None in runs:
            ok = False
            continue
        ok = print_workload(*runs) and ok
    print("all gates passed" if ok else "GATE FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
