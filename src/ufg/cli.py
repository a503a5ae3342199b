"""Command-line interface.

Subcommands: transform, reconstruct, denoise, pool, train-node,
train-graph, perturb, bench, verify. Exit codes: 0 success, 1 usage error,
2 runtime failure, 3 verify failure.

One run is one experiment point: a grid (noise levels, dilations, level
counts, thresholds) is a shell loop over runs. ``train-node`` can apply one
``perturb`` noise model to its dataset before training (``--perturb-*``).

Defaults: no flag has a default of its own. A flag left out takes the
library's default (a command passes on only the flags given), and choices
are the library's: training flags default to ``ExperimentConfig``,
transform flags to ``FrameletSystem``, data flags to ``datasets.SBMData``
or ``GraphData`` (``train-node --data-dir`` reads citation data instead of
an SBM), the rest to the function or spec they reach. A training summary's
``fingerprint`` hashes its config, data spec and perturbation.

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
variables cap BLAS threads. Large Chebyshev transforms run one column group
per CPU the process may use, whatever those say: only ``taskset`` narrows
that, and with BLAS on one thread the output is the same.
``UFG_DETERMINISTIC=1`` zeroes wall-clock fields so repeated runs at a fixed
BLAS thread count emit byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import datasets, experiments, io, nn, shrinkage, transform
from . import perturb as perturb_mod
from . import verify as verify_mod
from .filters import haar_filter_bank


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


def _int64(token: str, text: str | None = None) -> int:
    """The value of an integer flag, or of one ``token`` of the list flag
    ``text``: an int that fits int64, NumPy's widest integer, so that a huge
    one is refused here, with the flag's name, rather than deep in NumPy."""
    where = "" if text is None else f" in {text!r}"
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int {token!r}{where}") from None
    if not -(2**63) <= value < 2**63:
        raise argparse.ArgumentTypeError(f"{token!r}{where} does not fit int64")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers and ascending ``lo-hi`` ranges, inclusive,
    each bound fitting int64."""
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        # A leading minus sign is the start's sign, not the range dash.
        dash = chunk.find("-", 1)
        if dash < 0:
            out.append(_int64(chunk, text))
            continue
        lo = _int64(chunk[:dash], text)
        hi = _int64(chunk[dash + 1 :], text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"descending range {chunk!r} in {text!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return tuple(out)


def _given(args, *names) -> dict:
    """The flags among ``names`` given on the command line, by name: a
    flag left out is None and passed on to no one, so the library's
    default applies."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dilation", type=float)
    p.add_argument("--levels", type=_int64)
    p.add_argument("--degree", type=_int64, help=_DEGREE_HELP)
    p.add_argument("--mode", choices=transform.MODES)


def _signal_and_operator(args):
    """The ``--signal`` file, and the framelet operator of the ``--graph``
    file set by the system flags. The settings are checked first, as
    ``ExperimentConfig`` checks them, so bad ones read no file."""
    settings = _given(args, "dilation", "levels", "degree", "mode")
    transform.FrameletSystem(haar_filter_bank(), **settings)
    graph = io.read_graph_text(args.graph)
    signal = io.read_features_csv(args.signal)
    return signal, transform.framelet_operator(graph, **settings)


def _cmd_transform(args) -> int:
    signal, op = _signal_and_operator(args)
    io.write_coefficients(op, transform.decompose(op, signal), args.out)
    _emit_json({"nodes": op.num_nodes, "features": signal.shape[1],
                "blocks": op.num_blocks, "K": op.system.K, "out": args.out,
                "provenance": op.provenance})
    return 0


def _cmd_reconstruct(args) -> int:
    graph = io.read_graph_text(args.graph)
    settings, num_high, num_nodes, digest, data = io.read_coefficients(args.coeffs)
    # Checked before the operator, in exact mode an eigendecomposition, is built.
    haar_high = haar_filter_bank().num_high
    if (num_nodes, num_high) != (graph.num_nodes, haar_high):
        raise ValueError(
            f"{args.coeffs}: coefficients of {num_nodes} nodes and {num_high} high "
            f"passes; the graph's Haar operator has {graph.num_nodes} and {haar_high}")
    if digest != io.laplacian_digest(graph.laplacian):
        raise ValueError(f"{args.coeffs}: written for another graph than {args.graph}")
    op = transform.framelet_operator(graph, **settings)
    signal = transform.reconstruct(op, data)
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
    shrinkage.ThresholdConfig(args.sigma)  # refuse a bad sigma before any file is read
    noisy, op = _signal_and_operator(args)
    truth = io.read_features_csv(args.truth) if args.truth else None
    denoised, report = experiments.denoise_signal(op, noisy, sigma=args.sigma, truth=truth)
    io.write_features_csv(denoised, args.out)
    report["out"] = args.out
    _emit_json(report)
    return 0


def _cmd_pool(args) -> int:
    signal, op = _signal_and_operator(args)
    pooled, cache = nn.ufg_pool_forward(op, signal, *_given(args, "pool_mode").values())
    io.write_features_csv(pooled[None, :], args.out)
    _emit_json({"length": int(pooled.shape[0]), "mode": cache["mode"], "out": args.out})
    return 0


def _node_data(args):
    """The ``train-node`` data spec: the citation data of ``--data-dir``, or
    the SBM of the SBM flags given."""
    sbm = _given(args, *(f.name for f in fields(datasets.SBMData)))
    if args.data_dir is None:
        return datasets.SBMData(**sbm)
    if sbm:
        flags = ", ".join("--" + name.replace("_", "-") for name in sbm)
        raise _UsageError(f"--data-dir reads citation data and takes no SBM flag, got {flags}")
    return datasets.CitationData(args.data_dir)


def _perturbation(args, data):
    """The ``--perturb-*`` flags of ``train-node`` as a ``PerturbationSpec``,
    or None when they are absent."""
    if (args.perturb_model is None) != (args.perturb_value is None):
        raise _UsageError("--perturb-model and --perturb-value come together")
    if args.perturb_model is None:
        return None
    # Never the data seed, so the perturbation draws never replay the
    # uniforms that generated the dataset. Citation data has no seed.
    seed = getattr(data, "data_seed", 0) + 1
    return perturb_mod.PerturbationSpec(args.perturb_model, args.perturb_value, seed)


def _experiment_config(args, task: str):
    """The subcommand's flags as an ``ExperimentConfig`` of ``task``; fields
    whose flag is absent or not given keep their dataclass defaults."""
    flags = _given(args, *(f.name for f in fields(experiments.ExperimentConfig)))
    return experiments.ExperimentConfig(**{**flags, "task": task})


def _summary(record, config, data, perturbation=None) -> dict:
    """A training run's line: its record, the ``fingerprint`` of its settings
    and the ``data`` and ``perturbation`` these name; a setting that does not
    apply, such as a binary SBM's noise, is left out of ``data``."""
    summary = {"fingerprint": experiments.fingerprint(config, data, perturbation),
               "mean": record.mean, "std": record.std, "per_seed": list(record.per_seed),
               "wall_clock_s": record.wall_clock, **record.extra,
               "data": {k: v for k, v in asdict(data).items() if v is not None}}
    if perturbation is not None:
        summary["perturbation"] = asdict(perturbation)
    return summary


def _cmd_train_node(args) -> int:
    data = _node_data(args)
    spec = _perturbation(args, data)
    config = _experiment_config(args, "citation_node" if args.data_dir else "sbm_node")
    dataset = data.make()
    if spec is not None:
        graph, features = perturb_mod.perturb(dataset.graph, dataset.features, spec)
        dataset = replace(dataset, graph=graph, features=features)
    sink = [] if args.metrics_out else None
    record = experiments.train_node_classifier(dataset, config, metrics_sink=sink)
    if args.metrics_out:
        io.write_metrics_jsonl(sink, args.metrics_out)
    _emit_json(_summary(record, config, data, spec))
    return 0


def _cmd_train_graph(args) -> int:
    data = datasets.GraphData(**_given(args, *(f.name for f in fields(datasets.GraphData))))
    config = _experiment_config(args, data.task)
    samples = data.make()
    sink = [] if args.metrics_out else None
    record = experiments.train_graph_classifier(samples, config, metrics_sink=sink)
    if args.metrics_out:
        io.write_metrics_jsonl(sink, args.metrics_out)
    summary = _summary(record, config, data)
    summary["majority_baseline"] = experiments.majority_class_accuracy(samples)
    _emit_json(summary)
    return 0


def _cmd_perturb(args) -> int:
    spec = perturb_mod.PerturbationSpec(args.model, args.value, **_given(args, "seed"))
    graph = io.read_graph_text(args.graph)
    features = io.read_features_csv(args.features)
    new_graph, new_features = perturb_mod.perturb(graph, features, spec)
    if args.out_graph:
        io.write_graph_text(new_graph, args.out_graph)
    if args.out_features:
        io.write_features_csv(new_features, args.out_features)
    summary = {"model": args.model, "value": args.value,
               "edges_before": graph.num_edges, "edges_after": new_graph.num_edges}
    if args.model == "bernoulli_flip":
        summary["flip_probability"] = perturb_mod.flip_probability(features, args.value)
        summary["note"] = "ratio is relative to the nonzero entry count"
    _emit_json(summary)
    return 0


def _cmd_bench(args) -> int:
    rows = experiments.bench_transform(**_given(
        args, "node_sizes", "avg_degree", "levels", "degree", "dilation", "repetitions",
        "seed"))
    for row in rows:
        _emit_json(row)
    return 0


def _cmd_verify(args) -> int:
    reports = verify_mod.run_verify(**_given(args, "n", "seed"))
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
    p.add_argument("--pool-mode", choices=nn.READOUTS)
    _add_system_flags(p)
    p.set_defaults(func=_cmd_pool)

    def add_training_flags(p, node_model=True):
        p.add_argument("--hidden", type=_int64)
        p.add_argument("--lr", type=float)
        p.add_argument("--weight-decay", type=float)
        p.add_argument("--epochs", type=_int64)
        p.add_argument("--seeds", type=_parse_int_list)
        p.add_argument("--metrics-out")
        # The graph model has no dropout layer and no activation choice.
        if node_model:
            p.add_argument("--dropout", type=float)
            p.add_argument("--activation", choices=experiments.ACTIVATIONS)
            p.add_argument("--sigma", type=float)
            p.add_argument("--threshold-mode", choices=shrinkage.THRESHOLD_MODES)

    p = sub.add_parser("train-node", help="node classification experiment")
    p.add_argument("--data-dir", help="citation dataset to train on instead of an SBM")
    p.add_argument("--sbm-sizes", type=_parse_int_list)
    p.add_argument("--p-in", type=float)
    p.add_argument("--p-out", type=float)
    p.add_argument("--feature-model", choices=datasets.FEATURE_MODELS)
    p.add_argument("--feature-dim", type=_int64)
    p.add_argument("--feature-noise", type=float,
                   help="noise std of the gaussian feature model")
    p.add_argument("--data-seed", type=_int64)
    p.add_argument("--perturb-model", choices=perturb_mod.PERTURB_MODELS,
                   help="noise model applied to the dataset before training")
    p.add_argument("--perturb-value", type=float,
                   help="flip ratio, noise std or edge-count ratio of --perturb-model "
                        "(its draws are seeded with --data-seed + 1)")
    add_training_flags(p)
    _add_system_flags(p)
    p.set_defaults(func=_cmd_train_node)

    p = sub.add_parser("train-graph", help="graph classification experiment")
    p.add_argument("--task", choices=datasets.GRAPH_TASKS)
    p.add_argument("--num-per-class", type=_int64)
    p.add_argument("--data-seed", type=_int64)
    p.add_argument("--pool-mode", choices=experiments.POOL_MODES)
    # Early stopping. Both tasks share one training loop, but node runs
    # train every epoch, so only graph training takes this flag.
    p.add_argument("--patience", type=_int64)
    add_training_flags(p, node_model=False)
    _add_system_flags(p)
    p.set_defaults(func=_cmd_train_graph)

    p = sub.add_parser("perturb", help="apply a noise model to features or edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=perturb_mod.PERTURB_MODELS, required=True)
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--seed", type=_int64)
    p.add_argument("--out-graph")
    p.add_argument("--out-features")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("bench", help="time operator build and transform")
    p.add_argument("--sizes", dest="node_sizes", type=_parse_int_list)
    p.add_argument("--avg-degree", type=float)
    p.add_argument("--levels", type=_int64)
    p.add_argument("--degree", type=_int64, help=_DEGREE_HELP)
    p.add_argument("--dilation", type=float)
    p.add_argument("--reps", dest="repetitions", type=_int64)
    p.add_argument("--seed", type=_int64)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="run the invariant suite on both backends")
    p.add_argument("--n", type=_int64)
    p.add_argument("--seed", type=_int64)
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
