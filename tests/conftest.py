"""Shared fixtures: small seeded graphs and prebuilt transform systems,
and helpers that build a path graph, assemble a dense array as a sparse
matrix, write a citation dataset and reseal an edited coefficient file."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import settings

from ufg import io as ufg_io
from ufg.datasets import random_er_graph
from ufg.filters import haar_filter_bank
from ufg.graphs import _assemble, build_graph, eigendecompose, normalized_laplacian
from ufg.sparse import SparseMatrix
from ufg.transform import FrameletSystem, build_operators


def path_graph(num_nodes):
    """Path on ``num_nodes`` nodes with unit weights."""
    return build_graph(num_nodes, [(i, i + 1, 1.0) for i in range(num_nodes - 1)])


def sparse_matrix(dense) -> SparseMatrix:
    """The nonzero entries of ``dense`` as the library assembles a matrix."""
    a = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(a)
    return _assemble(a.shape, rows, cols, a[rows, cols])


def reseal(blob: bytes) -> bytes:
    """A coefficient file's bytes with the checksum recomputed, so that an
    edited header or payload gets past the checksum to the reader's other
    checks."""
    end = 4 + ufg_io._COEFF_HEADER.size
    checksum = hashlib.sha256(blob[:end])
    checksum.update(blob[end + 32:])
    return blob[:end] + checksum.digest() + blob[end + 32:]


def write_citation_fixture(root, n=10, d=3, num_classes=2):
    """A citation dataset on a path of ``n`` nodes, in ``load_citation``'s
    layout under the directory ``root``; returns its graph, features and
    labels."""
    rng = np.random.default_rng(0)
    graph = path_graph(n)
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, num_classes, size=n)
    labels[:num_classes] = np.arange(num_classes)  # every class present
    ufg_io.write_graph_text(graph, root / "graph.txt")
    ufg_io.write_features_csv(features, root / "features.csv")
    (root / "labels.txt").write_text("".join(f"{y}\n" for y in labels))
    splits = {"train": [0, 1], "val": [2, 3], "test": list(range(4, n))}
    (root / "splits.json").write_text(json.dumps(splits))
    manifest = {
        "num_nodes": n,
        "num_features": d,
        "num_classes": num_classes,
        "train_size": 2,
        "val_size": 2,
        "test_size": n - 4,
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    return graph, features, labels


settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def small_graph():
    return random_er_graph(24, avg_degree=4.0, rng=np.random.default_rng(7))


@pytest.fixture(scope="session")
def small_laplacian(small_graph):
    return normalized_laplacian(small_graph)


@pytest.fixture(scope="session")
def small_spectrum(small_laplacian):
    return eigendecompose(small_laplacian)


@pytest.fixture(scope="session")
def small_system(small_spectrum):
    lam = float(small_spectrum.values[-1])
    return FrameletSystem(haar_filter_bank(), levels=2, lam_max=lam, mode="exact")


@pytest.fixture(scope="session")
def small_operator(small_system, small_laplacian, small_spectrum):
    return build_operators(small_system, small_laplacian, small_spectrum)
