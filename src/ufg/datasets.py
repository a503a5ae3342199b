"""Synthetic graph datasets and citation-data loading.

Everything here is seeded through ``numpy.random.default_rng`` and fully
deterministic given the seed. Citation-scale data is user-supplied in the
plain-text formats documented in ``ufg.io``; only synthetic generators ship.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import Graph, build_graph


@dataclass(frozen=True)
class NodeDataset:
    """Single graph with node features, labels and index-mask splits."""

    graph: Graph
    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    train_mask: np.ndarray = field(repr=False)
    val_mask: np.ndarray = field(repr=False)
    test_mask: np.ndarray = field(repr=False)

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
    noise_std: float = 1.0


@dataclass(frozen=True)
class BinaryFeatures:
    """0/1 features: class-specific dims fire often, the rest rarely.

    The feature dims are split evenly across classes; an entry is 1 with
    probability ``p_active`` on the node's class dims and ``p_background``
    elsewhere. Needed by perturbation models that flip binary entries.
    """

    dim: int = 48
    p_active: float = 0.5
    p_background: float = 0.05


def sample_pairs(n: int, m: int, rng, taken: np.ndarray | None = None) -> np.ndarray:
    """``m`` distinct pairs ``u < v``, coded ``u * n + v``, drawn uniformly
    from those whose code is not in ``taken``, in draw order.

    A batch draws ``2 * need / q + 8`` values of ``u``, then of ``v``, with
    ``q`` the share of all pairs still free (about 1 while sparse), so it
    yields about ``2 * need`` new pairs even near a complete graph. Loops,
    taken codes and repeats are dropped (Batagelj & Brandes 2005). A batch
    first drops the codes taken or kept before it, with one ``np.isin``
    that runs as a table lookup while codes are dense, and then its own
    repeats, so only its new codes are sorted. Raises ``ValueError`` if
    fewer than ``m`` pairs are free.
    """
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
        _, first = np.unique(fresh, return_index=True)
        seen = np.concatenate([seen, fresh[np.sort(first)][:need]])
    return seen[start:]


def random_er_graph(num_nodes: int, avg_degree: float, rng) -> Graph:
    """Erdos-Renyi graph G(n, p) with ``p = min(1, avg_degree / (n - 1))``.

    Draws the binomial edge count, then that many distinct pairs with
    ``sample_pairs``. Given its edge count, a G(n, p) edge set is a uniform
    subset of that size, so the result is exactly G(n, p), at a cost linear
    in the edge count rather than n^2 coin flips.
    """
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


def path_graph(num_nodes: int) -> Graph:
    """Path on ``num_nodes`` nodes with unit weights."""
    return build_graph(num_nodes, [(i, i + 1, 1.0) for i in range(num_nodes - 1)])


def cycle_graph(num_nodes: int) -> Graph:
    edges = [(i, (i + 1) % num_nodes, 1.0) for i in range(num_nodes)]
    return build_graph(num_nodes, edges)


def star_graph(num_nodes: int) -> Graph:
    return build_graph(num_nodes, [(0, i, 1.0) for i in range(1, num_nodes)])


def stratified_split(
    labels: np.ndarray, fractions: tuple[float, float], rng
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class shuffle into train/val/test masks by the given fractions.

    ``fractions = (train, val)``; the remainder is test. Every class
    contributes at least one training node.
    """
    rng = np.random.default_rng(rng)
    labels = np.asarray(labels)
    n = labels.shape[0]
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = rng.permutation(idx)
        n_train = max(1, int(round(fractions[0] * idx.size)))
        n_val = max(1, int(round(fractions[1] * idx.size)))
        train[idx[:n_train]] = True
        val[idx[n_train : n_train + n_val]] = True
        test[idx[n_train + n_val :]] = True
    return train, val, test


def generate_sbm(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    feature_model: GaussianFeatures | BinaryFeatures = GaussianFeatures(),
    seed: int = 0,
) -> NodeDataset:
    """Stochastic block model with class-informative features.

    Within-block pairs connect with probability ``p_in``, cross-block pairs
    with ``p_out``. Features follow ``feature_model``; labels are the block
    ids; splits are stratified 10/20/70 train/val/test. Deterministic given
    ``seed``.
    """
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    block_sizes = [int(s) for s in block_sizes]
    if not block_sizes or min(block_sizes) <= 0:
        raise ValueError("every block must be nonempty")
    rng = np.random.default_rng(seed)
    labels = np.concatenate(
        [np.full(size, cls, dtype=np.int64) for cls, size in enumerate(block_sizes)]
    )
    n = labels.shape[0]
    # One uniform draw per ordered pair, row-major (the stream of a single
    # (n, n) draw), taken one row block at a time and compared against p_in
    # or p_out per block; pairs (u, v) with u < v become edges.
    starts = np.cumsum([0] + block_sizes)
    rows, cols = [], []
    for a in range(len(block_sizes)):
        draws = rng.random((block_sizes[a], n))
        for b in range(a, len(block_sizes)):
            hit = draws[:, starts[b] : starts[b + 1]] < (p_in if a == b else p_out)
            r, c = np.nonzero(np.triu(hit, k=1) if a == b else hit)
            rows.append(r + starts[a])
            cols.append(c + starts[b])
    graph = build_graph(n, _unit_edges(np.concatenate(rows), np.concatenate(cols)))
    num_classes = len(block_sizes)
    if isinstance(feature_model, GaussianFeatures):
        means = rng.normal(size=(num_classes, feature_model.dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        features = means[labels] + feature_model.noise_std * rng.normal(
            size=(n, feature_model.dim)
        )
    elif isinstance(feature_model, BinaryFeatures):
        dim = feature_model.dim
        chunk = dim // num_classes
        if chunk == 0:
            raise ValueError("feature dim smaller than the number of classes")
        prob_mat = np.full((n, dim), feature_model.p_background)
        for cls in range(num_classes):
            lo = cls * chunk
            hi = dim if cls == num_classes - 1 else (cls + 1) * chunk
            prob_mat[labels == cls, lo:hi] = feature_model.p_active
        features = (rng.random((n, dim)) < prob_mat).astype(np.float64)
    else:
        raise TypeError(f"unknown feature model {type(feature_model).__name__}")
    train, val, test = stratified_split(labels, (0.1, 0.2), rng)
    return NodeDataset(
        graph=graph,
        features=features,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )


def _degree_features(graph: Graph) -> np.ndarray:
    return np.column_stack([np.ones(graph.num_nodes), graph.degrees])


def cycles_and_stars(
    num_per_class: int = 100, size_range: tuple[int, int] = (10, 30), seed: int = 0
) -> list[GraphSample]:
    """Binary graph-classification task: cycles (label 0) vs stars (label 1).

    Node features are (1, degree); sizes are drawn uniformly from
    ``size_range`` inclusive.
    """
    rng = np.random.default_rng(seed)
    samples: list[GraphSample] = []
    for label, maker in ((0, cycle_graph), (1, star_graph)):
        sizes = rng.integers(size_range[0], size_range[1] + 1, size=num_per_class)
        for size in sizes:
            g = maker(int(size))
            samples.append(GraphSample(graph=g, features=_degree_features(g), label=label))
    return samples


def sbm_graph_family(
    num_per_class: int = 50, size_range: tuple[int, int] = (20, 30), seed: int = 0
) -> list[GraphSample]:
    """Two-block SBM graphs (label 0) vs density-matched ER graphs (label 1)."""
    rng = np.random.default_rng(seed)
    p_in, p_out = 0.5, 0.05
    samples: list[GraphSample] = []
    for _ in range(num_per_class):
        size = int(rng.integers(size_range[0], size_range[1] + 1))
        half = size // 2
        ds = generate_sbm(
            [half, size - half],
            p_in,
            p_out,
            GaussianFeatures(dim=2, noise_std=1.0),
            seed=int(rng.integers(0, 2**31)),
        )
        samples.append(
            GraphSample(graph=ds.graph, features=_degree_features(ds.graph), label=0)
        )
        # ER with the SBM's expected average degree
        within = half * (half - 1) // 2 + (size - half) * (size - half - 1) // 2
        cross = half * (size - half)
        expected_edges = within * p_in + cross * p_out
        avg_deg = 2.0 * expected_edges / size
        g = random_er_graph(size, avg_deg, rng)
        samples.append(GraphSample(graph=g, features=_degree_features(g), label=1))
    return samples


def load_citation(directory: str | os.PathLike) -> NodeDataset:
    """Load a citation-style dataset from its documented on-disk layout.

    Expects ``graph.txt`` (graph text format), ``features.csv``,
    ``labels.txt`` (one integer per line), ``splits.json`` (train/val/test
    index lists) and ``manifest.json`` with the expected sizes. Split-size
    mismatches against the manifest warn; structural problems raise.
    """
    from . import io as ufg_io

    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    graph = ufg_io.read_graph_text(os.path.join(directory, "graph.txt"))
    features = ufg_io.read_features_csv(os.path.join(directory, "features.csv"))
    labels = ufg_io.read_labels_text(os.path.join(directory, "labels.txt"))
    with open(os.path.join(directory, "splits.json"), encoding="utf-8") as fh:
        splits = json.load(fh)
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    n = graph.num_nodes
    if features.shape[0] != n or labels.shape[0] != n:
        raise ValueError("features/labels row count does not match the graph")
    masks = {}
    for name in ("train", "val", "test"):
        idx = np.asarray(splits[name], dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"{name} split indices out of range")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        masks[name] = mask
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
