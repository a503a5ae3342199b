"""Command-line interface.

Subcommands: transform, reconstruct, denoise, pool, train-node,
train-graph, perturb, bench, verify. Exit codes: 0 success, 1 usage error,
2 runtime failure, 3 verify failure.

One run is one experiment point: a grid (noise levels, dilations, level
counts, thresholds) is a shell loop over runs. ``train-node`` can apply one
``perturb`` noise model to its dataset before training (``--perturb-*``).

Output: stdout carries one ``io.encode_json`` line per result and nothing
else: one summary per run, one row per size (``bench``) or per property and
backend (``verify``). Every line is strict JSON:
keys are sorted, NumPy integer, float and bool scalars are written as plain
numbers and booleans, and a non-finite float, such as the NaN accuracy of a
diverged seed in ``per_seed``, is written as ``null``. Any other object that
is not JSON serializable is a runtime failure (exit code 2). Diagnostics go
to stderr. The only files written are those a command's own output flags
name (``--out``, ``--out-graph``, ``--out-features``, ``--metrics-out``);
``--metrics-out`` files follow the same JSON rule.

Environment: the standard ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``
variables cap BLAS threads; ``UFG_DETERMINISTIC=1`` zeroes wall-clock fields
so repeated runs emit byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from . import datasets, experiments, io, nn, transform
from . import perturb as perturb_mod
from . import verify as verify_mod
from .filters import DEFAULT_CHEBYSHEV_DEGREE


_DEGREE_HELP = ("Chebyshev degree t of one level's filters; chebyshev mode fits every "
               "block directly at t + 4 (levels - 1), then chops the terms that are "
               "round-off in every block: degree 15 of 20 at t = 16, two levels and "
               "K = 0, so 30 sparse products per round trip")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exit code 1 and
    takes no abbreviated flags, so that ``--seed`` is never ``--seeds``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _emit_json(obj) -> None:
    """Print one strict, sorted-key JSON line to stdout."""
    print(io.encode_json(obj))


def _parse_token(kind, token: str, text: str):
    try:
        return kind(token)
    except ValueError:
        raise _UsageError(f"invalid {kind.__name__} {token!r} in {text!r}") from None


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers and ascending ``lo-hi`` ranges, inclusive."""
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        # A leading minus sign is the start's sign, not the range dash.
        dash = chunk.find("-", 1)
        if dash < 0:
            out.append(_parse_token(int, chunk, text))
            continue
        lo = _parse_token(int, chunk[:dash], text)
        hi = _parse_token(int, chunk[dash + 1 :], text)
        if hi < lo:
            raise _UsageError(f"descending range {chunk!r} in {text!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise _UsageError(f"empty integer list: {text!r}")
    return out


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dilation", type=float, default=2.0)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument(
        "--degree", type=int, default=DEFAULT_CHEBYSHEV_DEGREE, help=_DEGREE_HELP
    )
    p.add_argument("--mode", choices=("exact", "chebyshev"), default="exact")


def _operator(graph, args):
    """The framelet operator of ``graph`` set by the system flags."""
    return transform.framelet_operator(
        graph, args.dilation, args.levels, args.degree, args.mode
    )


def _cmd_transform(args) -> int:
    graph = io.read_graph_text(args.graph)
    signal = io.read_features_csv(args.signal)
    op = _operator(graph, args)
    stack = transform.decompose(op, signal)
    io.write_coefficients(op, stack, args.out)
    _emit_json(
        {
            "nodes": graph.num_nodes,
            "features": signal.shape[1],
            "blocks": op.num_blocks,
            "K": op.system.K,
            "out": args.out,
            "provenance": op.provenance,
        }
    )
    return 0


def _cmd_reconstruct(args) -> int:
    graph = io.read_graph_text(args.graph)
    settings, num_high, num_nodes, digest, data = io.read_coefficients(args.coeffs)
    op = transform.framelet_operator(graph, **settings)
    if (num_nodes, num_high) != (op.num_nodes, op.system.num_high):
        raise ValueError(
            f"{args.coeffs}: coefficients of {num_nodes} nodes and {num_high} high "
            f"passes; the graph's Haar operator has {op.num_nodes} and {op.system.num_high}")
    if digest != io.laplacian_digest(op.lap):
        raise ValueError(f"{args.coeffs}: written for another graph than {args.graph}")
    stack = transform.CoefficientStack(data, op.block_index, num_nodes)
    signal = transform.reconstruct(op, stack)
    summary = {"nodes": graph.num_nodes, "out": args.out}
    if args.reference:
        ref = io.read_features_csv(args.reference)
        if ref.shape != signal.shape:
            raise ValueError(
                f"reference shape {ref.shape} does not match the signal shape "
                f"{signal.shape}"
            )
        denom = float(np.linalg.norm(ref))
        err = float(np.linalg.norm(signal - ref))
        summary["relative_error"] = err / denom if denom else err
    io.write_features_csv(signal, args.out)
    _emit_json(summary)
    return 0


def _cmd_denoise(args) -> int:
    graph = io.read_graph_text(args.graph)
    noisy = io.read_features_csv(args.signal)
    truth = io.read_features_csv(args.truth) if args.truth else None
    op = _operator(graph, args)
    denoised, report = experiments.denoise_signal(
        op, noisy, sigma=args.sigma, truth=truth
    )
    io.write_features_csv(denoised, args.out)
    report["out"] = args.out
    _emit_json(report)
    return 0


def _cmd_pool(args) -> int:
    graph = io.read_graph_text(args.graph)
    signal = io.read_features_csv(args.signal)
    op = _operator(graph, args)
    pooled, _ = nn.ufg_pool_forward(op, signal, args.pool_mode)
    io.write_features_csv(pooled[None, :], args.out)
    _emit_json(
        {"length": int(pooled.shape[0]), "mode": args.pool_mode, "out": args.out}
    )
    return 0


def _node_dataset(args):
    """The ``train-node`` dataset and the summary's ``data`` object naming it."""
    if args.dataset == "citation":
        if not args.data_dir:
            raise _UsageError("--data-dir is required for the citation dataset")
        return datasets.load_citation(args.data_dir), {"data_dir": args.data_dir}
    sizes = _parse_int_list(args.sbm_sizes)
    info = {"sbm_sizes": sizes, "p_in": args.p_in, "p_out": args.p_out,
            "feature_model": args.feature_model, "feature_dim": args.feature_dim,
            "data_seed": args.data_seed}
    if args.feature_model == "binary":
        if args.feature_noise is not None:
            raise _UsageError("--feature-noise does not apply to --feature-model binary")
        model = datasets.BinaryFeatures(dim=args.feature_dim)
    else:
        noise = 0.5 if args.feature_noise is None else args.feature_noise
        model = datasets.GaussianFeatures(dim=args.feature_dim, noise_std=noise)
        info["feature_noise"] = noise
    return datasets.generate_sbm(
        sizes, args.p_in, args.p_out, model, seed=args.data_seed
    ), info


def _perturbation(args):
    """The ``--perturb-*`` flags of ``train-node`` as a ``PerturbationSpec``,
    or None when they are absent."""
    if args.perturb_model is None:
        if args.perturb_value is not None:
            raise _UsageError("--perturb-value needs --perturb-model")
        return None
    if args.perturb_value is None:
        raise _UsageError("--perturb-model needs --perturb-value")
    # Never the data seed, so the perturbation draws never replay the
    # uniforms that generated the dataset.
    seed = args.data_seed + 1
    return perturb_mod.PerturbationSpec(args.perturb_model, args.perturb_value, seed)


def _experiment_config(args, task: str):
    """The subcommand's flags as an ``ExperimentConfig``; fields it has no
    flag for keep their dataclass defaults."""
    flags = {f.name: getattr(args, f.name)
             for f in fields(experiments.ExperimentConfig) if hasattr(args, f.name)}
    flags.update(task=task, seeds=tuple(_parse_int_list(args.seeds)))
    return experiments.ExperimentConfig(**flags)


def _record_summary(record) -> dict:
    summary = {
        "fingerprint": record.fingerprint,
        "mean": record.mean,
        "std": record.std,
        "per_seed": list(record.per_seed),
        "wall_clock_s": record.wall_clock,
    }
    summary.update(record.extra)
    return summary


def _cmd_train_node(args) -> int:
    spec = _perturbation(args)
    config = _experiment_config(args, task=f"{args.dataset}_node")
    data, info = _node_dataset(args)
    if spec is not None:
        graph, features = perturb_mod.perturb(data.graph, data.features, spec)
        data = replace(data, graph=graph, features=features)
    sink = [] if args.metrics_out else None
    record = experiments.train_node_classifier(data, config, metrics_sink=sink)
    if args.metrics_out:
        io.write_metrics_jsonl(sink, args.metrics_out)
    summary = _record_summary(record)
    summary["data"] = info
    if spec is not None:
        summary["perturbation"] = {"model": spec.model, "value": spec.value,
                                   "seed": spec.seed}
    _emit_json(summary)
    return 0


def _cmd_train_graph(args) -> int:
    config = _experiment_config(args, task=args.task)
    make = {"cycles-stars": datasets.cycles_and_stars,
            "sbm-family": datasets.sbm_graph_family}[args.task]
    samples = make(num_per_class=args.num_per_class, seed=args.data_seed)
    sink = [] if args.metrics_out else None
    record = experiments.train_graph_classifier(samples, config, metrics_sink=sink)
    if args.metrics_out:
        io.write_metrics_jsonl(sink, args.metrics_out)
    summary = _record_summary(record)
    summary["majority_baseline"] = experiments.majority_class_accuracy(samples)
    summary["data"] = {"task": args.task, "num_per_class": args.num_per_class,
                       "data_seed": args.data_seed}
    _emit_json(summary)
    return 0


def _cmd_perturb(args) -> int:
    graph = io.read_graph_text(args.graph)
    features = io.read_features_csv(args.features)
    spec = perturb_mod.PerturbationSpec(args.model, args.value, args.seed)
    new_graph, new_features = perturb_mod.perturb(graph, features, spec)
    if args.out_graph:
        io.write_graph_text(new_graph, args.out_graph)
    if args.out_features:
        io.write_features_csv(new_features, args.out_features)
    summary = {
        "model": args.model,
        "value": args.value,
        "edges_before": graph.num_edges,
        "edges_after": new_graph.num_edges,
    }
    if args.model == "bernoulli_flip":
        nnz = int(np.count_nonzero(features))
        summary["flip_probability"] = min(1.0, args.value * nnz / features.size)
        summary["note"] = "ratio is relative to the nonzero entry count"
    _emit_json(summary)
    return 0


def _cmd_bench(args) -> int:
    rows = experiments.bench_transform(
        _parse_int_list(args.sizes),
        avg_degree=args.avg_degree,
        levels=args.levels,
        degree=args.degree,
        dilation=args.dilation,
        repetitions=args.reps,
        seed=args.seed,
    )
    for row in rows:
        _emit_json(row)
    return 0


def _cmd_verify(args) -> int:
    reports = verify_mod.run_verify(n=args.n, seed=args.seed)
    for report in reports:
        _emit_json(report)
    return 0 if all(r["passed"] for r in reports) else 3


def _build_parser() -> _Parser:
    parser = _Parser(prog="ufg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", help="graph + signal -> coefficient file")
    p.add_argument("--graph", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    _add_system_flags(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("reconstruct", help="coefficient file -> signal")
    p.add_argument("--graph", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reference", help="original signal to compare against")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("denoise", help="soft-threshold high-pass coefficients")
    p.add_argument("--graph", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--truth", help="clean signal for MSE reporting")
    _add_system_flags(p)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("pool", help="framelet pooling readout")
    p.add_argument("--graph", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pool-mode", choices=("sum", "spectrum"), default="spectrum")
    _add_system_flags(p)
    p.set_defaults(func=_cmd_pool)

    def add_training_flags(p, node_model=True):
        p.add_argument("--hidden", type=int, default=32)
        p.add_argument("--lr", type=float, default=0.01)
        p.add_argument("--weight-decay", type=float, default=0.005)
        p.add_argument("--epochs", type=int, default=200)
        p.add_argument("--seeds", default="0-9")
        p.add_argument("--metrics-out")
        # The graph model has no dropout layer and no activation choice.
        if node_model:
            p.add_argument("--dropout", type=float, default=0.5)
            p.add_argument(
                "--activation", choices=("relu", "shrinkage"), default="relu"
            )
            p.add_argument("--sigma", type=float, default=1.0)
            p.add_argument(
                "--threshold-mode",
                choices=("global", "energy_scaled"),
                default="energy_scaled",
            )

    p = sub.add_parser("train-node", help="node classification experiment")
    p.add_argument("--dataset", choices=("sbm", "citation"), default="sbm")
    p.add_argument("--data-dir")
    p.add_argument("--sbm-sizes", default="100,100,100")
    p.add_argument("--p-in", type=float, default=0.1)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument(
        "--feature-model", choices=("gaussian", "binary"), default="gaussian"
    )
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--feature-noise", type=float,
                   help="noise std of the gaussian feature model (default 0.5)")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--perturb-model", choices=perturb_mod.PERTURB_MODELS,
                   help="noise model applied to the dataset before training")
    p.add_argument("--perturb-value", type=float,
                   help="flip ratio, noise std or edge-count ratio of --perturb-model "
                        "(its draws are seeded with --data-seed + 1)")
    add_training_flags(p)
    _add_system_flags(p)
    p.set_defaults(func=_cmd_train_node)

    p = sub.add_parser("train-graph", help="graph classification experiment")
    p.add_argument("--task", choices=("cycles-stars", "sbm-family"),
                   default="cycles-stars")
    p.add_argument("--num-per-class", type=int, default=100)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--pool-mode", choices=("sum", "spectrum", "mean"),
                   default="spectrum")
    # Early stopping. Both tasks share one training loop, but node runs
    # train every epoch, so only graph training takes this flag.
    p.add_argument("--patience", type=int, default=20)
    add_training_flags(p, node_model=False)
    _add_system_flags(p)
    p.set_defaults(func=_cmd_train_graph)

    p = sub.add_parser("perturb", help="apply a noise model to features or edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=perturb_mod.PERTURB_MODELS, required=True)
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-graph")
    p.add_argument("--out-features")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("bench", help="time operator build and transform")
    p.add_argument("--sizes", default="1000,2000,4000,8000")
    p.add_argument("--avg-degree", type=float, default=1.5)
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--degree", type=int, default=5, help=_DEGREE_HELP)
    p.add_argument("--dilation", type=float, default=2.0)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="run the invariant suite on both backends")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help exits directly
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, MemoryError) as exc:
        print(f"error: {type(exc).__name__}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
