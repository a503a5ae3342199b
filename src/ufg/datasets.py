"""Synthetic graph datasets and citation-data loading.

Everything here is seeded through ``numpy.random.default_rng`` and fully
deterministic given the seed. Random graphs draw their edges with
``sample_pairs``, which keeps each pair's first draw and sorts each batch of
draws, so costs O(E log E), and hand them to ``graphs.build_graph`` as one
``(M, 3)`` edge array.
Citation-scale data is user-supplied in the plain-text formats documented
in ``ufg.io``; only synthetic generators ship.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import io
from .graphs import Graph, build_graph


def check_splits(counts) -> None:
    """Raise ``ValueError`` naming each split whose (train, val, test) count is 0."""
    empty = [name for name, n in zip(("train", "val", "test"), counts) if not n]
    if empty:
        raise ValueError(f"empty split(s), no nodes in: {', '.join(empty)}")


def check_seed(seed, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``seed`` is a nonnegative
    integer, the seeds ``numpy.random.default_rng`` takes."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"{name} must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class NodeDataset:
    """Single graph with node features, labels and index-mask splits.

    Every split must select at least one node; an empty one raises
    ``ValueError`` naming it (``check_splits``).
    """

    graph: Graph
    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    train_mask: np.ndarray = field(repr=False)
    val_mask: np.ndarray = field(repr=False)
    test_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_splits([np.count_nonzero(m)
                      for m in (self.train_mask, self.val_mask, self.test_mask)])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class GraphSample:
    """One labeled graph for graph-level classification."""

    graph: Graph
    features: np.ndarray = field(repr=False)
    label: int


@dataclass(frozen=True)
class GaussianFeatures:
    """Per-class unit-norm Gaussian mean plus isotropic noise."""

    dim: int = 16
    noise_std: float = 0.5

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"feature dim must be >= 1, got {self.dim}")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise std must be finite and >= 0, got {self.noise_std}")


@dataclass(frozen=True)
class BinaryFeatures:
    """0/1 features: class-specific dims fire often, the rest rarely.

    The feature dims are split evenly across classes; an entry is 1 with
    probability ``p_active`` on the node's class dims and ``p_background``
    elsewhere. Needed by perturbation models that flip binary entries.
    """

    dim: int = 16
    p_active: float = 0.5
    p_background: float = 0.05

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"feature dim must be >= 1, got {self.dim}")
        if not (0.0 <= self.p_active <= 1.0 and 0.0 <= self.p_background <= 1.0):
            raise ValueError(f"p_active {self.p_active} and p_background "
                             f"{self.p_background} must lie in [0, 1]")


def sample_pairs(n: int, m: int, rng, taken: np.ndarray | None = None) -> np.ndarray:
    """``m`` distinct pairs ``u < v``, coded ``u * n + v``, drawn uniformly
    from those whose code is not in ``taken``, in draw order.

    A batch draws ``2 * need / q + 8`` values of ``u``, then of ``v``, with
    ``q`` the share of all pairs still free (about 1 while sparse), so it
    yields about ``2 * need`` new pairs even near a complete graph. Loops,
    taken codes and repeats are dropped (Batagelj & Brandes 2005). A batch
    first drops the codes taken or kept before it, with one ``np.isin``
    that runs as a table lookup while codes are dense, and then its own
    repeats: one unstable sort of its new codes groups equal ones, each
    group's least draw index marks its code's earliest draw, and the marked
    draws are kept in draw order. Raises ``ValueError`` if ``m`` is
    negative, if fewer than ``m`` pairs are free, or if the largest code,
    ``n^2 - n - 1``, does not fit int64.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    n = int(n)
    if n * n - n - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"n = {n} is too large: pair codes u * n + v overflow int64")
    # The taken codes, then the drawn ones in draw order.
    seen = np.asarray([] if taken is None else taken, dtype=np.int64)
    pairs = n * (n - 1) // 2
    start, stop = seen.size, seen.size + m
    if stop > pairs:
        raise ValueError(
            f"{m} pairs exceeds the number of available pairs ({pairs - start})"
        )
    while seen.size < stop:
        need = stop - seen.size
        size = 2 * need * pairs // (pairs - seen.size) + 8
        u = rng.integers(0, n, size=size)
        v = rng.integers(0, n, size=size)
        drawn = (np.minimum(u, v) * n + np.maximum(u, v))[u != v]
        fresh = drawn[~np.isin(drawn, seen)]
        if not fresh.size:  # every draw a loop or taken; reduceat needs input
            continue
        # An unstable sort groups equal codes; a group's least draw index is
        # its code's first draw, and the mask keeps those in draw order.
        order = np.argsort(fresh)
        code = fresh[order]
        starts = np.flatnonzero(np.concatenate([[True], code[1:] != code[:-1]]))
        keep = np.zeros(fresh.size, dtype=bool)
        keep[np.minimum.reduceat(order, starts)] = True
        seen = np.concatenate([seen, fresh[keep][:need]])
    return seen[start:]


def check_avg_degree(avg_degree: float) -> None:
    """Raise ``ValueError`` unless ``avg_degree`` is finite and >= 0."""
    if not (np.isfinite(avg_degree) and avg_degree >= 0):
        raise ValueError(f"avg_degree must be finite and >= 0, got {avg_degree}")


def random_er_graph(num_nodes: int, avg_degree: float, rng) -> Graph:
    """Erdos-Renyi graph G(n, p) with ``p = min(1, avg_degree / (n - 1))``.

    Draws the binomial edge count, then that many distinct pairs with
    ``sample_pairs``. Given its edge count, a G(n, p) edge set is a uniform
    subset of that size, so the result is exactly G(n, p), at a cost of
    O(E log E) for E edges rather than n^2 coin flips.
    """
    check_avg_degree(avg_degree)
    rng = np.random.default_rng(rng)
    n = num_nodes
    if n < 2:
        return build_graph(n, [])
    p = min(1.0, avg_degree / (n - 1))
    m = int(rng.binomial(n * (n - 1) // 2, p))
    codes = sample_pairs(n, m, rng)
    return build_graph(n, _unit_edges(codes // n, codes % n))


def _unit_edges(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``(M, 3)`` edge rows of unit weight between ``rows`` and ``cols``."""
    return np.column_stack([rows, cols, np.ones(len(rows))])


def cycle_graph(num_nodes: int) -> Graph:
    edges = [(i, (i + 1) % num_nodes, 1.0) for i in range(num_nodes)]
    return build_graph(num_nodes, edges)


def star_graph(num_nodes: int) -> Graph:
    return build_graph(num_nodes, [(0, i, 1.0) for i in range(1, num_nodes)])


SPLIT_FRACTIONS = (0.1, 0.2)  # (train, val) of each class; the rest is test


def split_counts(size: int) -> np.ndarray:
    """The (train, val, test) node counts ``stratified_split`` gives a class
    of ``size``: ``round(fraction * size)`` for each of ``SPLIT_FRACTIONS``,
    at least 1, while nodes last."""
    n_train, n_val = (max(1, int(round(f * size))) for f in SPLIT_FRACTIONS)
    return np.diff(np.minimum([0, n_train, n_train + n_val, size], size))


def stratified_split(labels: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class shuffle into train/val/test masks of ``split_counts`` nodes:
    10/20/70, and every class contributes at least one training node."""
    rng = np.random.default_rng(rng)
    labels = np.asarray(labels)
    masks = np.zeros((3, labels.shape[0]), dtype=bool)
    for cls in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        for mask, part in zip(masks, np.split(idx, np.cumsum(split_counts(idx.size))[:2])):
            mask[part] = True
    return tuple(masks)


def check_sbm(block_sizes: Sequence[int], p_in: float, p_out: float) -> None:
    """Raise ``ValueError`` unless the block model is drawable: both
    probabilities in [0, 1] (so not NaN) and at least one block, every block
    nonempty, leaving a node in every split of ``generate_sbm``'s 10/20/70
    split. ``generate_sbm`` and ``SBMData`` both check here."""
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probabilities must lie in [0, 1], got {name} = {p}")
    if not block_sizes or min(int(s) for s in block_sizes) <= 0:
        raise ValueError("every block must be nonempty")
    check_splits(sum(split_counts(int(s)) for s in block_sizes))


def _sbm_graph(block_sizes: list[int], p_in: float, p_out: float, rng) -> Graph:
    """A block model's graph: per block pair (a <= b), a binomial edge count,
    then that many distinct pairs, ER within a block, ``u * n_b + v`` across."""
    starts = np.cumsum([0] + block_sizes)
    rows, cols = [], []
    for a, b in itertools.combinations_with_replacement(range(len(block_sizes)), 2):
        n_a, n_b = block_sizes[a], block_sizes[b]
        if a == b:
            codes = sample_pairs(n_a, rng.binomial(n_a * (n_a - 1) // 2, p_in), rng)
        else:
            codes = rng.choice(n_a * n_b, rng.binomial(n_a * n_b, p_out), replace=False)
        r, c = np.divmod(codes, n_b)
        rows.append(r + starts[a])
        cols.append(c + starts[b])
    edges = _unit_edges(np.concatenate(rows), np.concatenate(cols))
    return build_graph(int(starts[-1]), edges)


def generate_sbm(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    feature_model: GaussianFeatures | BinaryFeatures = GaussianFeatures(),
    seed: int = 0,
) -> NodeDataset:
    """Stochastic block model with class-informative features.

    Within-block pairs connect with probability ``p_in``, cross-block pairs
    with ``p_out``. Each block pair draws its binomial edge count, then that
    many distinct pairs, as ``random_er_graph`` does: O(N + E log E), not a
    coin flip per node pair (Batagelj & Brandes 2005). Features follow
    ``feature_model``; labels are the block ids; splits are stratified
    10/20/70 train/val/test. Deterministic given ``seed``.
    """
    check_sbm(block_sizes, p_in, p_out)
    block_sizes = [int(s) for s in block_sizes]
    num_classes = len(block_sizes)
    if isinstance(feature_model, BinaryFeatures) and feature_model.dim < num_classes:
        raise ValueError("feature dim smaller than the number of classes")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), block_sizes)
    n = labels.shape[0]
    graph = _sbm_graph(block_sizes, p_in, p_out, rng)
    if isinstance(feature_model, GaussianFeatures):
        means = rng.normal(size=(num_classes, feature_model.dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        features = means[labels] + feature_model.noise_std * rng.normal(
            size=(n, feature_model.dim)
        )
    elif isinstance(feature_model, BinaryFeatures):
        # Dim i belongs to class i // chunk; the last class also takes the rest.
        chunk = feature_model.dim // num_classes
        owner = np.minimum(np.arange(feature_model.dim) // chunk, num_classes - 1)
        prob = np.where(owner == labels[:, None], feature_model.p_active,
                        feature_model.p_background)
        features = (rng.random(prob.shape) < prob).astype(np.float64)
    else:
        raise TypeError(f"unknown feature model {type(feature_model).__name__}")
    train, val, test = stratified_split(labels, rng)
    return NodeDataset(
        graph=graph,
        features=features,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )


FEATURE_MODELS = {"gaussian": GaussianFeatures, "binary": BinaryFeatures}


@dataclass(frozen=True)
class SBMData:
    """A ``generate_sbm`` dataset. A ``feature_dim`` or ``feature_noise`` left
    None takes the feature model's default; binary features have no noise."""

    sbm_sizes: tuple[int, ...] = (100, 100, 100)
    p_in: float = 0.1
    p_out: float = 0.01
    feature_model: str = "gaussian"
    feature_dim: int | None = None
    feature_noise: float | None = None
    data_seed: int = 0

    def __post_init__(self):
        check_seed(self.data_seed, "data_seed")
        check_sbm(self.sbm_sizes, self.p_in, self.p_out)
        if self.feature_model not in FEATURE_MODELS:
            raise ValueError(f"unknown feature_model {self.feature_model!r}")
        if self.feature_model == "binary" and self.feature_noise is not None:
            raise ValueError("feature_noise does not apply to feature_model 'binary'")
        if self.feature_dim is not None and self.feature_dim < 1:
            raise ValueError(f"feature dim must be >= 1, got feature_dim = {self.feature_dim}")
        noise = self.feature_noise
        if noise is not None and not (np.isfinite(noise) and noise >= 0):
            raise ValueError(f"noise std must be finite and >= 0, got feature_noise = {noise}")
        model = self.features()
        object.__setattr__(self, "feature_dim", model.dim)
        object.__setattr__(self, "feature_noise", getattr(model, "noise_std", None))

    def features(self) -> GaussianFeatures | BinaryFeatures:
        given = {"dim": self.feature_dim, "noise_std": self.feature_noise}
        return FEATURE_MODELS[self.feature_model](
            **{name: value for name, value in given.items() if value is not None})

    def make(self) -> NodeDataset:
        return generate_sbm(self.sbm_sizes, self.p_in, self.p_out, self.features(),
                            seed=self.data_seed)


def _degree_features(graph: Graph) -> np.ndarray:
    return np.column_stack([np.ones(graph.num_nodes), graph.degrees])


def cycles_and_stars(
    num_per_class: int, size_range: tuple[int, int] = (10, 30), seed: int = 0
) -> list[GraphSample]:
    """Binary graph-classification task: cycles (label 0) vs stars (label 1).

    Node features are (1, degree); sizes are drawn uniformly from
    ``size_range`` inclusive.
    """
    if num_per_class < 0:
        raise ValueError(f"num_per_class must be >= 0, got {num_per_class}")
    rng = np.random.default_rng(seed)
    samples: list[GraphSample] = []
    for label, maker in ((0, cycle_graph), (1, star_graph)):
        sizes = rng.integers(size_range[0], size_range[1] + 1, size=num_per_class)
        for size in sizes:
            g = maker(int(size))
            samples.append(GraphSample(graph=g, features=_degree_features(g), label=label))
    return samples


def sbm_graph_family(
    num_per_class: int, size_range: tuple[int, int] = (20, 30), seed: int = 0
) -> list[GraphSample]:
    """Two-block SBM graphs (label 0) vs density-matched ER graphs (label 1)."""
    if num_per_class < 0:
        raise ValueError(f"num_per_class must be >= 0, got {num_per_class}")
    rng = np.random.default_rng(seed)
    p_in, p_out = 0.5, 0.05
    samples: list[GraphSample] = []
    for _ in range(num_per_class):
        size = int(rng.integers(size_range[0], size_range[1] + 1))
        half = size // 2
        sub = np.random.default_rng(int(rng.integers(0, 2**31)))
        g = _sbm_graph([half, size - half], p_in, p_out, sub)
        samples.append(GraphSample(graph=g, features=_degree_features(g), label=0))
        # ER with the SBM's expected average degree
        within = half * (half - 1) // 2 + (size - half) * (size - half - 1) // 2
        cross = half * (size - half)
        expected_edges = within * p_in + cross * p_out
        avg_deg = 2.0 * expected_edges / size
        g = random_er_graph(size, avg_deg, rng)
        samples.append(GraphSample(graph=g, features=_degree_features(g), label=1))
    return samples


GRAPH_TASKS = {"cycles-stars": cycles_and_stars, "sbm-family": sbm_graph_family}


def graph_split_sizes(num_graphs: int) -> tuple[int, int]:
    """(train, val) sizes of the graph task's 80/10/10 split: ``round(0.8 m)``
    and ``round(0.1 m)``, at least 1; the rest, none below 8 graphs, is test."""
    n_train = int(round(0.8 * num_graphs))
    n_val = max(1, int(round(0.1 * num_graphs)))
    if num_graphs - n_train - n_val <= 0:
        raise ValueError(f"{num_graphs} graphs are too few for an 80/10/10 split")
    return n_train, n_val


@dataclass(frozen=True)
class GraphData:
    """The graphs of a ``GRAPH_TASKS`` task, ``num_per_class`` of each label,
    at least 4 so that the 80/10/10 split has a test graph."""

    task: str = "cycles-stars"
    num_per_class: int = 100
    data_seed: int = 0

    def __post_init__(self):
        if self.task not in GRAPH_TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        # Each task has two labels, and 8 graphs are the fewest of which
        # graph_split_sizes leaves a test graph.
        if self.num_per_class < 4:
            raise ValueError(f"num_per_class must be >= 4, got {self.num_per_class}: "
                             "too few for an 80/10/10 split")
        check_seed(self.data_seed, "data_seed")

    def make(self) -> list[GraphSample]:
        return GRAPH_TASKS[self.task](self.num_per_class, seed=self.data_seed)


def _read_json(directory: str, name: str):
    """The JSON value in file ``name`` of ``directory``; a syntax error
    raises ``ValueError`` naming the file."""
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}: invalid JSON: {exc}") from None


def load_citation(directory: str | os.PathLike) -> NodeDataset:
    """Load a citation-style dataset from its documented on-disk layout.

    Expects ``graph.txt`` (graph text format), ``features.csv``,
    ``labels.txt`` (one integer per line), ``splits.json`` (train/val/test
    index lists) and ``manifest.json`` with the expected sizes. Split-size
    mismatches against the manifest warn; structural problems raise, among
    them a split index that is not a JSON integer and a node in two splits.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    graph = io.read_graph_text(os.path.join(directory, "graph.txt"))
    features = io.read_features_csv(os.path.join(directory, "features.csv"))
    labels = io.read_labels_text(os.path.join(directory, "labels.txt"))
    splits = _read_json(directory, "splits.json")
    if not isinstance(splits, dict) or not {"train", "val", "test"} <= splits.keys():
        raise ValueError('splits.json: must be an object with "train", "val" and "test" lists')
    manifest = _read_json(directory, "manifest.json")
    if not isinstance(manifest, dict):
        raise ValueError("manifest.json: must be an object of expected sizes")
    n = graph.num_nodes
    if features.shape[0] != n or labels.shape[0] != n:
        raise ValueError("features/labels row count does not match the graph")
    masks = {}
    for name in ("train", "val", "test"):
        idx = splits[name]
        # bool is an int subclass, and an int64 cast truncates a float.
        if not isinstance(idx, list) or any(type(i) is not int for i in idx):
            raise ValueError(f"{name} split must be a list of integer node indices")
        if any(not 0 <= i < n for i in idx):
            raise ValueError(f"{name} split indices out of range")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        masks[name] = mask
    shared = [f"{a}/{b}" for a, b in itertools.combinations(masks, 2)
              if np.any(masks[a] & masks[b])]
    if shared:
        raise ValueError(f"splits share nodes: {', '.join(shared)}")
    checks = {
        "num_nodes": n,
        "num_features": features.shape[1],
        "num_classes": int(labels.max()) + 1,
        "train_size": int(masks["train"].sum()),
        "val_size": int(masks["val"].sum()),
        "test_size": int(masks["test"].sum()),
    }
    for key, got in checks.items():
        want = manifest.get(key)
        if want is None:
            continue
        if key.endswith("_size"):
            if want != got:
                warnings.warn(f"{key}: manifest says {want}, data has {got}")
        elif want != got:
            raise ValueError(f"{key}: manifest says {want}, data has {got}")
    return NodeDataset(
        graph=graph,
        features=features,
        labels=labels,
        train_mask=masks["train"],
        val_mask=masks["val"],
        test_mask=masks["test"],
    )


@dataclass(frozen=True)
class CitationData:
    """The citation dataset in ``data_dir``, read by ``load_citation``."""

    data_dir: str

    def make(self) -> NodeDataset:
        return load_citation(self.data_dir)

    def digest(self) -> str:
        """SHA-256 over the SHA-256 of each file ``load_citation`` reads: it
        names the data by content, under any path to any copy of it."""
        sha = hashlib.sha256()
        for name in ("graph.txt", "features.csv", "labels.txt", "splits.json",
                     "manifest.json"):
            with open(os.path.join(self.data_dir, name), "rb") as fh:
                sha.update(hashlib.sha256(fh.read()).digest())
        return sha.hexdigest()
