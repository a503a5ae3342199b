"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload node-sbm300-exact --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout: the program is imported from ./src.
The run generates its inputs from --seed, then repeats passes of the
workload (closed loop, one caller) until --seconds have gone by, and at
least MIN_PASSES times. It prints one line per metric, the correctness
gates, and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run repeats the
untraced passes first, then runs one pass with every layer wrapped, and
writes its span tree next to the full result in perfbench/out/.

End-to-end times are in reference seconds: each interval is scaled by a
fixed kernel sampled in and around it, so that the host's current speed
drops out (see reference.py). The full result also holds them as read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# BLAS threads, fixed before numpy loads so every commit runs alike.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings)

from reference import NOMINAL_S, PERIOD, Sampler  # noqa: E402
from spans import PER_LAYER, Recorder  # noqa: E402
from stats import median, quartiles, tail  # noqa: E402

MIN_PASSES = 3
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = (
    "node-sbm300-exact",
    "graph-cycles-stars",
    "node-sbm800-cheb",
    "roundtrip-er20k-cheb",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_s.p50": "s",
    "step_s.tail": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}


def result_path(workload: str, seed: int, trace: int, smoke: bool) -> Path:
    """Where a run writes its full result: metrics, gates and provenance."""
    suffix = "-smoke" if smoke else ""
    return OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}{suffix}.json"


def git_commit(root: Path) -> str:
    """Commit of a git checkout at ``root``, read from its files."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, seed: int, workload, sizes: dict, sampler: Sampler) -> dict:
    import scipy

    from workloads import describe

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "reference": {
            "kernel": sampler.kernel,
            "nominal_s": NOMINAL_S[sampler.kernel],
            "period_s": PERIOD,
            "samples": len(sampler.slownesses),
            "slowness": dict(zip(("q1", "median", "q3"), quartiles(sampler.slownesses))),
        },
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "params": describe(workload),
        "sizes": sizes,
    }


def measure(workload, seed: int, seconds: float, sampler: Sampler) -> list:
    passes = []
    start = time.perf_counter()
    with sampler:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(seed, sampler))
    return passes


def timings(passes, wall: bool = False) -> dict:
    """The timed end-to-end metrics, in reference seconds or as read.

    The tail is taken in each pass and the median over passes reported, so
    that a host slowdown within one pass does not move it.
    """
    prefix = "wall_" if wall else ""
    per_pass = [getattr(p, prefix + "steps") for p in passes if p.steps]
    return {
        "setup_s": median(getattr(p, prefix + "setup_s") for p in passes),
        "run_s": median(getattr(p, prefix + "run_s") for p in passes),
        "step_s.p50": median(s for steps in per_pass for s in steps),
        "step_s.tail": median(tail(steps)[1] for steps in per_pass),
    }


def end_to_end(passes) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, and how they were taken."""
    accuracies = passes[0].accuracies
    values = {
        **timings(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": sum(accuracies.values()) / len(accuracies),
    }
    info = {"steps": sum(len(p.steps) for p in passes),
            "tail_percentile": min(tail(p.steps)[0] for p in passes if p.steps),
            "passes": len(passes)}
    return values, info


def traced_pass(workload, seed: int, untraced_p50: float, spans_path: Path):
    """One pass with every layer wrapped; per-layer metrics and span tree.

    The pass samples no reference kernel, so that no span contains one, and
    ``untraced_p50`` is the untraced passes' wall step time.
    """
    with Recorder() as rec:
        traced = workload.run_pass(seed, Sampler(None))
    tree = rec.tree(traced.intervals)
    layers = rec.layer_metrics(tree, traced.intervals)
    layers["trace.overhead_frac"] = median(traced.wall_steps) / untraced_p50 - 1.0
    spans_path.parent.mkdir(exist_ok=True)
    np.savez(spans_path, **tree)
    return traced, {k: layers[k] for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the workload's shape at a tiny size (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ufg" / "__init__.py").is_file():
        print("error: ./src/ufg not found; run from the root of a ufg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    if args.smoke:
        workload = wl.smoke(workload)

    sizes, gates = workload.probe(args.seed)
    sampler = Sampler(workload.kernel)
    passes = measure(workload, args.seed, args.seconds, sampler)
    if not any(p.steps for p in passes):
        print("error: no step completed:", *[f for p in passes for f in p.failures],
              sep="\n  ", file=sys.stderr)
        return 1
    sizes = {**sizes, **passes[0].sizes}
    metrics, info = end_to_end(passes)
    wall = timings(passes, wall=True)
    gates += wl.floor_gates(workload, passes[0].accuracies, sizes.get("test", 0))
    gates.append(wl.gate(
        "repeatable", all(p.accuracies == passes[0].accuracies for p in passes),
        f"accuracies identical over {len(passes)} passes",
    ))
    layers = None
    if args.trace:
        spans_path = result_path(args.workload, args.seed, 1, args.smoke).with_suffix(".spans.npz")
        traced, layers = traced_pass(workload, args.seed, wall["step_s.p50"], spans_path)
        passes.append(traced)
        gates.append(wl.gate(
            "trace_equal", traced.accuracies == passes[0].accuracies,
            f"traced accuracies {traced.accuracies} vs untraced {passes[0].accuracies}",
        ))
    failures = [f for p in passes for f in p.failures]
    failures += [f"gate {g['gate']}: {g['detail']}" for g in gates if not g["ok"]]
    attempted = sum(p.attempted for p in passes) + len(gates)
    failed = len(failures)

    result = {
        "workload": args.workload,
        "smoke": args.smoke,
        "trace": args.trace,
        "provenance": provenance(root, args.seed, workload, sizes, sampler),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "wall": wall,
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "gates": gates,
        "info": info,
        "per_layer": None if layers is None else {
            k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    result_path(args.workload, args.seed, args.trace, args.smoke).write_text(
        json.dumps(result, indent=1)
    )

    print(f"# {args.workload} seed {args.seed}: {info['passes']} passes, "
          f"{info['steps']} steps, tail at p{info['tail_percentile']:g} of each pass")
    for name, m in result["end_to_end"].items():
        read = f" (wall {wall[name]:.6g} s)" if name in wall else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{read}")
    print(f"failed_frac {result['failed_frac']:.6g} ratio ({failed}/{attempted})")
    for name, m in (result["per_layer"] or {}).items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for g in gates:
        print(f"gate {g['gate']} {'ok' if g['ok'] else 'FAILED'}: {g['detail']}")
    for f in failures:
        print(f"failure: {f}")
    shown = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
