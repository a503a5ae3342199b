"""Noise models for robustness experiments.

Three perturbations, each deterministic given its seed: Bernoulli flips of
binary features, additive Gaussian feature noise, and random edge removal or
addition toward a target edge-count ratio.

The Bernoulli "noise ratio" can exceed 1 because it is measured relative to
the nonzero entries: the expected number of flipped entries equals
``ratio * nnz(X)``, so the per-entry flip probability is
``min(1, ratio * nnz / size)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import check_seed, sample_pairs
from .graphs import Graph, build_graph

PERTURB_MODELS = ("bernoulli_flip", "gaussian", "edge_ratio")


@dataclass(frozen=True)
class PerturbationSpec:
    """One noise model: ``edge_ratio`` perturbs the edge set, the other two
    the features.

    ``value`` is the model parameter, finite and nonnegative: flip ratio for
    ``bernoulli_flip``, noise std for ``gaussian``, target edge-count ratio
    for ``edge_ratio``.
    """

    model: str
    value: float
    seed: int = 0

    def __post_init__(self):
        if self.model not in PERTURB_MODELS:
            raise ValueError(f"model must be one of {PERTURB_MODELS}")
        if not (np.isfinite(self.value) and self.value >= 0):
            raise ValueError(
                f"model parameter must be finite and nonnegative, got {self.value}"
            )
        check_seed(self.seed, "seed")


def perturb(
    graph: Graph, features: np.ndarray, spec: PerturbationSpec
) -> tuple[Graph, np.ndarray]:
    """Apply one perturbation; the untouched half passes through unchanged.

    ``bernoulli_flip`` requires 0/1 features and flips entries with the
    probability described in the module docstring. ``gaussian`` adds
    N(0, value^2) to every entry. ``edge_ratio`` targets
    ``round(value * |E|)`` pairs: below 1 it keeps a uniform subset of the
    edges, above 1 it adds non-edges drawn uniformly by
    ``datasets.sample_pairs``, and raises ``ValueError`` when too few pairs
    are free. Self loops and the weights of kept edges are preserved; added
    edges get unit weight.
    """
    features = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(spec.seed)
    if spec.model == "bernoulli_flip":
        if spec.value == 0.0:
            return graph, features
        if not np.all(np.isin(features, (0.0, 1.0))):
            raise ValueError("bernoulli_flip requires 0/1 features")
        nnz = int(np.count_nonzero(features))
        p = min(1.0, spec.value * nnz / features.size)
        flip = rng.random(features.shape) < p
        return graph, np.where(flip, 1.0 - features, features)
    if spec.model == "gaussian":
        if spec.value == 0.0:
            return graph, features
        return graph, features + rng.normal(0.0, spec.value, size=features.shape)
    # edge_ratio
    if spec.value == 1.0:
        return graph, features
    coo = graph.adjacency.csr.tocoo()
    row, col = coo.row.astype(np.int64), coo.col.astype(np.int64)
    entries = np.column_stack([row, col, coo.data])
    upper = row < col
    pairs = entries[upper]
    loops = entries[(row == col) & (coo.data != 0.0)]
    m = len(pairs)
    target = int(round(spec.value * m))
    n = graph.num_nodes
    if target <= m:
        edges = pairs[np.sort(rng.choice(m, size=target, replace=False))]
    else:
        # Pair (u < v) is coded u * n + v.
        codes = sample_pairs(n, target - m, rng, taken=(row * n + col)[upper])
        new_edges = np.column_stack([codes // n, codes % n, np.ones(codes.size)])
        edges = np.concatenate([pairs, new_edges])
    return build_graph(n, np.concatenate([edges, loops])), features
