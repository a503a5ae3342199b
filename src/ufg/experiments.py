"""Desk-scale experiment drivers.

Node and graph classification with framelet convolutions, framelet
denoising and transform benchmarking.
Every driver is deterministic given its config and seeds; in deterministic
mode (``UFG_DETERMINISTIC=1``) recorded wall-clock fields are zeroed so
re-runs produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .datasets import GraphSample, NodeDataset, random_er_graph
from .io import deterministic_mode
from .nn import (
    ACTIVATION_KINDS,
    AdamState,
    ConvLayerParams,
    LayerActivation,
    accuracy,
    adam_step,
    dropout_backward,
    dropout_forward,
    gcn_conv_backward,
    gcn_conv_forward,
    init_params,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax_cross_entropy,
    ufg_conv_backward,
    ufg_conv_forward,
    ufg_input_conv_backward,
    ufg_input_conv_forward,
    ufg_pool_backward,
    ufg_pool_forward,
    xavier_uniform,
)
from .shrinkage import ThresholdConfig, compression_ratio, shrink_stack
from .sparse import SparseMatrix
from .transform import (
    DecompositionOperator,
    decompose,
    framelet_operator,
    reconstruct,
)

DEFAULT_SEEDS = tuple(range(10))
BENCH_FEATURES = 4  # signal columns of each ``bench_transform`` round trip


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment family.

    Defaults are the grid centroids used throughout: lr 0.01, weight decay
    0.005, hidden width 32, dropout 0.5, 200 epochs, patience 20. Both
    tasks train in one loop; ``dropout`` is read by the node model only
    (the graph model has no dropout layer) and ``patience``, the early
    stopping, by graph classification only.
    """

    task: str = "sbm_node"
    dilation: float = 2.0
    levels: int = 2
    degree: int = 16
    mode: str = "exact"
    activation: str = "relu"
    sigma: float = 1.0
    threshold_mode: str = "energy_scaled"
    pool_mode: str = "spectrum"
    hidden: int = 32
    lr: float = 0.01
    weight_decay: float = 0.005
    dropout: float = 0.5
    epochs: int = 200
    patience: int = 20
    seeds: tuple[int, ...] = DEFAULT_SEEDS

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and > 0")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be finite and >= 0")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0 (inf allowed), got {self.sigma}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be nonempty and distinct, got {self.seeds}")
        if self.activation not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.pool_mode not in ("sum", "spectrum", "mean"):
            raise ValueError(f"unknown pool mode {self.pool_mode!r}")

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class MetricsRecord:
    """Aggregated per-seed results of one experiment config.

    ``per_seed`` may contain NaN for seeds that diverged (aborted on
    non-finite loss); mean/std are over the finite entries and the failures
    are listed in ``extra["failed_seeds"]``.
    """

    fingerprint: str
    per_seed: tuple[float, ...]
    mean: float
    std: float
    wall_clock: float
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        finite = [x for x in self.per_seed if np.isfinite(x)]
        if finite:
            if not (min(finite) - 1e-12 <= self.mean <= max(finite) + 1e-12):
                raise ValueError("mean must lie within the per-seed range")


def make_record(
    fingerprint: str,
    per_seed: list[float],
    wall_clock: float,
    extra: dict | None = None,
) -> MetricsRecord:
    finite = [x for x in per_seed if np.isfinite(x)]
    extra = dict(extra or {})
    failed = [i for i, x in enumerate(per_seed) if not np.isfinite(x)]
    if failed:
        extra["failed_seeds"] = failed
    if not finite:
        raise ValueError("every seed failed")
    return MetricsRecord(
        fingerprint=fingerprint,
        per_seed=tuple(per_seed),
        mean=float(np.mean(finite)),
        std=float(np.std(finite)),
        wall_clock=0.0 if deterministic_mode() else float(wall_clock),
        extra=extra,
    )


def _elapsed(start: float) -> float:
    return 0.0 if deterministic_mode() else time.perf_counter() - start


def build_node_operator(
    data: NodeDataset, config: ExperimentConfig
) -> DecompositionOperator:
    """Framelet operator for a node dataset under the config's system."""
    return framelet_operator(
        data.graph, config.dilation, config.levels, config.degree, config.mode
    )


def _layer_activations(config: ExperimentConfig) -> tuple[LayerActivation, LayerActivation]:
    if config.activation == "shrinkage":
        cfg = ThresholdConfig(config.sigma, config.threshold_mode)
        return LayerActivation.shrinkage(cfg), LayerActivation.shrinkage(cfg)
    if config.activation == "relu":
        return LayerActivation.relu(), LayerActivation.none()
    return LayerActivation.none(), LayerActivation.none()


def _conv_params(params: dict[str, np.ndarray], prefix: str) -> ConvLayerParams:
    return ConvLayerParams(
        W=params[f"{prefix}.W"],
        theta=params[f"{prefix}.theta"],
        bias=params[f"{prefix}.bias"],
    )


_SPLITS = ("train", "val", "test")


def _fit(task, config: ExperimentConfig, seed: int, patience: float,
         metrics_sink: list | None = None) -> tuple[float, dict | None]:
    """One seeded training run of ``task``; the loop both tasks share.

    ``task.init(rng)`` draws the parameters and runs the first forward
    pass; each epoch is then ``task.step`` (loss and gradients of the state
    the last evaluation left), one Adam step with coupled L2 on
    ``task.decay_keys``, and ``task.evaluate`` (the logits, read on the
    train/val/test ``task.masks``). Each epoch's three metrics rows reach
    ``metrics_sink`` as the epoch ends. Training stops after ``patience``
    epochs without validation improvement, and model selection keeps the
    epoch with the best validation accuracy.

    Returns that epoch's test accuracy and parameters, or ``(nan, None)``
    if the loss diverges.
    """
    rng = np.random.default_rng(seed)
    params = task.init(rng)
    adam = AdamState(lr=config.lr)
    best_val, best = -1.0, (np.nan, None)
    stale = 0
    for epoch in range(config.epochs):
        loss, grads = task.step(params, rng)
        if not np.isfinite(loss):
            return np.nan, None
        params = adam_step(adam, params, grads, config.weight_decay, task.decay_keys)
        logits = task.evaluate(params)
        accs = [accuracy(logits, task.labels, mask) for mask in task.masks]
        if metrics_sink is not None:
            for split, acc in zip(_SPLITS, accs):
                metrics_sink.append(
                    {"seed": seed, "epoch": epoch, "split": split,
                     "loss": float(loss), "accuracy": acc}
                )
        if accs[1] > best_val:
            best_val, best = accs[1], (accs[2], params)
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best


class _NodeTask:
    """Node classification: two framelet convolutions with dropout between,
    softmax cross entropy on the training mask, L2 on the dense weights.

    ``coeff_x`` is ``decompose(op, data.features).data``: layer 1 runs on
    it (``nn.ufg_input_conv_forward``) and never decomposes its input.
    Layer 1's output before dropout is the same in epoch e's evaluation
    pass and epoch e+1's training pass, so it is computed once and carried
    over. An epoch then applies the operator 8 times, twice in layer 1:
    its reconstruct and the decompose of its upstream gradient. With ReLU
    or no activation and fewer input features than ``hidden``, layer 1
    reconstructs ``theta * coeff_x`` before projecting, so both run at the
    input width; with shrinkage, or when the input is at least as wide,
    it projects first and both run at ``hidden``.
    """

    decay_keys = frozenset({"l1.W", "l2.W"})

    def __init__(self, data: NodeDataset, op: DecompositionOperator,
                 coeff_x: np.ndarray, config: ExperimentConfig):
        self.data, self.op, self.coeff_x, self.config = data, op, coeff_x, config
        self.acts = _layer_activations(config)
        self.labels = data.labels
        self.masks = (data.train_mask, data.val_mask, data.test_mask)

    def _layer1(self, params) -> None:
        self.h1, self.c1 = ufg_input_conv_forward(
            _conv_params(params, "l1"), self.op, self.coeff_x, self.acts[0]
        )

    def init(self, rng) -> dict[str, np.ndarray]:
        l1 = init_params(self.data.features.shape[1], self.config.hidden,
                         self.op.num_rows, rng)
        l2 = init_params(self.config.hidden, self.data.num_classes,
                         self.op.num_rows, rng)
        params = {
            "l1.W": l1.W, "l1.theta": l1.theta, "l1.bias": l1.bias,
            "l2.W": l2.W, "l2.theta": l2.theta, "l2.bias": l2.bias,
        }
        self._layer1(params)
        return params

    def step(self, params, rng):
        hd, cd = dropout_forward(self.h1, self.config.dropout, rng, training=True)
        logits, c2 = ufg_conv_forward(_conv_params(params, "l2"), self.op, hd,
                                      self.acts[1])
        loss, dlogits = softmax_cross_entropy(logits, self.labels, self.masks[0])
        dh, dW2, dth2, db2 = ufg_conv_backward(c2, dlogits)
        dW1, dth1, db1 = ufg_input_conv_backward(self.c1, dropout_backward(cd, dh))
        return loss, {
            "l1.W": dW1, "l1.theta": dth1, "l1.bias": db1,
            "l2.W": dW2, "l2.theta": dth2, "l2.bias": db2,
        }

    def _eval_forward(self, params):
        # Its layer 1 output is also the next epoch's training input.
        self._layer1(params)
        return ufg_conv_forward(_conv_params(params, "l2"), self.op, self.h1,
                                self.acts[1])

    def evaluate(self, params) -> np.ndarray:
        return self._eval_forward(params)[0]

    def compression(self, params) -> float:
        """Final-layer compression ratio in evaluation mode (no dropout): what
        layer 2's shrinkage, as its forward cache records it, leaves nonzero."""
        cache = self._eval_forward(params)[1]
        return compression_ratio(cache["filtered"], cache["shrunk"])


def train_node_classifier(
    data: NodeDataset,
    config: ExperimentConfig,
    metrics_sink: list | None = None,
) -> MetricsRecord:
    """Multi-seed node classification; see ``_NodeTask`` and ``_fit``.

    Every seed runs all ``config.epochs`` (no early stopping). The input is
    decomposed once per call and its coefficients are shared by every seed.
    """
    start = time.perf_counter()
    op = build_node_operator(data, config)
    coeff_x = decompose(op, data.features).data
    task = _NodeTask(data, op, coeff_x, config)
    per_seed: list[float] = []
    compressions: list[float] = []
    for seed in config.seeds:
        test_acc, params = _fit(task, config, seed, np.inf, metrics_sink)
        per_seed.append(test_acc)
        if config.activation == "shrinkage" and params is not None:
            compressions.append(task.compression(params))
    extra: dict = {"task": config.task, "activation": config.activation}
    if compressions:
        extra["compression_ratio"] = float(np.mean(compressions))
    return make_record(config.fingerprint(), per_seed, _elapsed(start), extra)


@dataclass(frozen=True)
class _GraphUnion:
    """Graph samples as one graph: the disjoint union of their nodes.

    Graph ``g`` owns rows ``starts[g] : starts[g] + sizes[g]`` of the
    block-diagonal GCN adjacency and of the stacked features, and keeps its
    own framelet operator ``ops[g]`` (``ops`` is empty for the mean readout).
    """

    norm_adj: SparseMatrix
    features: np.ndarray
    labels: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    ops: tuple[DecompositionOperator, ...]


def _graph_union(samples: list[GraphSample], config: ExperimentConfig) -> _GraphUnion:
    sizes = np.array([s.graph.num_nodes for s in samples])
    ops = ()
    if config.pool_mode != "mean":
        ops = tuple(
            framelet_operator(
                s.graph, config.dilation, config.levels, config.degree, config.mode
            )
            for s in samples
        )
    return _GraphUnion(
        norm_adj=SparseMatrix.from_scipy(
            sp.block_diag([s.graph.gcn_adjacency.csr for s in samples], format="csr")
        ),
        features=np.vstack([s.features for s in samples]),
        labels=np.array([s.label for s in samples]),
        starts=np.cumsum(sizes) - sizes,
        sizes=sizes,
        ops=ops,
    )


def _union_forward(params, union: _GraphUnion, pool_mode: str):
    """Logits of every graph: two GCN layers, the readout, the MLP."""
    y1, c1 = gcn_conv_forward(params["g1.W"], union.norm_adj, union.features)
    y2, c2 = gcn_conv_forward(params["g2.W"], union.norm_adj, y1)
    if pool_mode == "mean":
        pooled = np.add.reduceat(y2, union.starts) / union.sizes[:, None]
        cp = None
    else:
        # The only per-graph loop: each graph has its own operator.
        pools = [
            ufg_pool_forward(op, y2[start : start + size], pool_mode)
            for op, start, size in zip(union.ops, union.starts, union.sizes)
        ]
        pooled = np.stack([p for p, _ in pools])
        cp = [c for _, c in pools]
    logits, cm = mlp_forward(params, pooled)
    return logits, (c1, c2, cp, cm)


def _union_backward(caches, dlogits: np.ndarray, union: _GraphUnion) -> dict:
    c1, c2, cp, cm = caches
    grads, dpooled = mlp_backward(cm, dlogits)
    if cp is None:
        dy2 = np.repeat(dpooled / union.sizes[:, None], union.sizes, axis=0)
    else:
        dy2 = np.vstack([ufg_pool_backward(c, d) for c, d in zip(cp, dpooled)])
    dy1, grads["g2.W"] = gcn_conv_backward(c2, dy2)
    _, grads["g1.W"] = gcn_conv_backward(c1, dy1)
    return grads


class _GraphTask:
    """Graph classification: two GCN layers, a pooling readout (framelet
    sum/spectrum or mean baseline) and a two-layer MLP, trained full-batch
    on the disjoint union of the graphs. ``init`` first draws the seed's
    split: ``split_sizes`` = (train, validation) graphs, the rest for test.
    The logits and caches of each evaluation are the next epoch's forward
    pass.
    """

    decay_keys = frozenset({"g1.W", "g2.W", "W1", "W2"})

    def __init__(self, union: _GraphUnion, config: ExperimentConfig,
                 split_sizes: tuple[int, int]):
        self.union, self.config, self.split_sizes = union, config, split_sizes
        self.labels = union.labels

    def init(self, rng) -> dict[str, np.ndarray]:
        m = self.labels.size
        perm = rng.permutation(m)
        n_train, n_val = self.split_sizes
        train_mask, val_mask, test_mask = (np.zeros(m, dtype=bool) for _ in range(3))
        train_mask[perm[:n_train]] = True
        val_mask[perm[n_train : n_train + n_val]] = True
        test_mask[perm[n_train + n_val :]] = True
        self.masks = (train_mask, val_mask, test_mask)
        union, hidden = self.union, self.config.hidden
        pool_dim = hidden * (union.ops[0].num_blocks if union.ops else 1)
        params = {
            "g1.W": xavier_uniform(union.features.shape[1], hidden, rng),
            "g2.W": xavier_uniform(hidden, hidden, rng),
        }
        params.update(mlp_init(pool_dim, hidden, int(self.labels.max()) + 1, rng))
        self.evaluate(params)
        return params

    def step(self, params, rng):
        loss, dlogits = softmax_cross_entropy(self.logits, self.labels, self.masks[0])
        return loss, _union_backward(self.caches, dlogits, self.union)

    def evaluate(self, params) -> np.ndarray:
        self.logits, self.caches = _union_forward(params, self.union,
                                                  self.config.pool_mode)
        return self.logits


def train_graph_classifier(
    samples: list[GraphSample],
    config: ExperimentConfig,
    metrics_sink: list | None = None,
) -> MetricsRecord:
    """Multi-seed graph classification on an 80/10/10 split, with early
    stopping after ``config.patience`` epochs without validation
    improvement; see ``_GraphTask`` and ``_fit``. An empty test split
    raises ``ValueError``."""
    start = time.perf_counter()
    m = len(samples)
    n_train = int(round(0.8 * m))
    n_val = max(1, int(round(0.1 * m)))
    if m - n_train - n_val <= 0:
        raise ValueError(f"{m} graphs are too few for an 80/10/10 split")
    task = _GraphTask(_graph_union(samples, config), config, (n_train, n_val))
    per_seed = [
        _fit(task, config, seed, config.patience, metrics_sink)[0]
        for seed in config.seeds
    ]
    extra = {"task": config.task, "pool_mode": config.pool_mode}
    return make_record(config.fingerprint(), per_seed, _elapsed(start), extra)


def majority_class_accuracy(samples: list[GraphSample]) -> float:
    labels = np.array([s.label for s in samples])
    _, counts = np.unique(labels, return_counts=True)
    return float(counts.max() / labels.size)


def denoise_signal(
    op: DecompositionOperator,
    noisy_signal: np.ndarray,
    sigma: float = 1.0,
    truth: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Framelet denoising: decompose, soft-threshold high passes, reconstruct.

    Uses the global universal threshold scaled by ``sigma`` on the framelet
    operator ``op`` of the signal's graph.
    """
    noisy = np.asarray(noisy_signal, dtype=np.float64)
    if truth is not None and np.shape(truth) != noisy.shape:
        raise ValueError(
            f"truth shape {np.shape(truth)} does not match the signal shape {noisy.shape}"
        )
    squeeze = noisy.ndim == 1
    if squeeze:
        noisy = noisy[:, None]
    coeff = decompose(op, noisy)
    shrunk = shrink_stack(coeff, ThresholdConfig(sigma, "global"))
    denoised = reconstruct(op, shrunk)
    report: dict = {"sigma": sigma}
    if truth is not None:
        t = np.asarray(truth, dtype=np.float64).reshape(noisy.shape)
        report["mse_denoised"] = float(np.mean((denoised - t) ** 2))
        report["mse_noisy"] = float(np.mean((noisy - t) ** 2))
    if squeeze:
        denoised = denoised[:, 0]
    return denoised, report


def bench_transform(
    node_sizes,
    avg_degree: float = 1.5,
    levels: int = 1,
    degree: int = 5,
    dilation: float = 2.0,
    repetitions: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Time Chebyshev operator build and decompose+reconstruct per size.

    Random sparse ER graphs and a ``BENCH_FEATURES``-column signal; per size,
    reports mean and median seconds over ``repetitions`` (at least 1) plus
    the operator's block count, ``recurrence_degree`` and
    ``operator_bytes``. The build is the whole ``framelet_operator`` call:
    Laplacian, Lanczos estimate of the top eigenvalue and block fits,
    each repetition on a fresh copy of the graph, whose spectral cache is
    empty. The transform runs matrix-free, one Chebyshev recurrence in each
    direction whatever the number of high passes, of ``recurrence_degree``
    sparse products: the block fits at degree ``degree + 4 (levels - 1)``
    with their round-off tail chopped. Out-of-memory records the size as
    skipped instead of failing the run.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    sizes = list(node_sizes)
    if sizes != sorted(sizes):
        raise ValueError("node sizes must be ascending")
    rows: list[dict] = []
    for n in sizes:
        row: dict = {"n": int(n), "levels": levels, "degree": degree}
        try:
            graph = random_er_graph(int(n), avg_degree, seed)
            build_times = []
            op = None
            for _ in range(repetitions):
                # An equal graph with an empty cache, so that every build
                # computes its own Laplacian and estimate.
                fresh = replace(graph)
                t0 = time.perf_counter()
                op = framelet_operator(fresh, dilation, levels, degree, "chebyshev")
                build_times.append(time.perf_counter() - t0)
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(int(n), BENCH_FEATURES))
            roundtrip_times = []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                reconstruct(op, decompose(op, X))
                roundtrip_times.append(time.perf_counter() - t0)
            if deterministic_mode():
                build_times = [0.0] * len(build_times)
                roundtrip_times = [0.0] * len(roundtrip_times)
            row.update(
                {
                    "status": "ok",
                    "build_mean_s": float(np.mean(build_times)),
                    "build_median_s": float(np.median(build_times)),
                    "transform_mean_s": float(np.mean(roundtrip_times)),
                    "transform_median_s": float(np.median(roundtrip_times)),
                    "blocks": op.num_blocks,
                    "recurrence_degree": op.system.recurrence_degree,
                    "operator_bytes": op.operator_bytes,
                }
            )
        except MemoryError:
            row["status"] = "oom"
        rows.append(row)
    return rows
