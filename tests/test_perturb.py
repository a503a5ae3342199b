"""Noise models: flip-rate calibration, edge-count targeting, determinism."""

import numpy as np
import pytest

from ufg.datasets import random_er_graph
from ufg.graphs import build_graph
from ufg.perturb import PerturbationSpec, perturb

# Monte Carlo band for the Bernoulli flip rate on 1e5 entries.
FLIP_RATE_BAND = 0.005


@pytest.fixture
def er(rng):
    return random_er_graph(30, 3.0, rng)


def test_spec_validation():
    PerturbationSpec("features", "bernoulli_flip", 0.5)
    with pytest.raises(ValueError, match="target"):
        PerturbationSpec("nodes", "gaussian", 0.1)
    with pytest.raises(ValueError, match="model"):
        PerturbationSpec("features", "dropout", 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        PerturbationSpec("features", "gaussian", -0.1)
    with pytest.raises(ValueError, match="targets"):
        PerturbationSpec("edges", "bernoulli_flip", 0.5)
    with pytest.raises(ValueError, match="targets"):
        PerturbationSpec("features", "edge_ratio", 0.5)


@pytest.mark.parametrize(
    "target, model, value",
    [
        ("features", "gaussian", float("nan")),
        ("features", "gaussian", float("inf")),
        ("features", "bernoulli_flip", float("-inf")),
        ("edges", "edge_ratio", float("nan")),
        ("edges", "edge_ratio", float("inf")),
        ("edges", "edge_ratio", -1.0),
    ],
)
def test_spec_requires_finite_nonnegative_value(target, model, value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        PerturbationSpec(target, model, value)


def test_bernoulli_requires_binary(er, rng):
    X = rng.normal(size=(30, 4))
    with pytest.raises(ValueError, match="0/1"):
        perturb(er, X, PerturbationSpec("features", "bernoulli_flip", 0.5))


def test_bernoulli_flip_rate_calibration(er, rng):
    # ratio 0.1 relative to the nonzero count: expected flipped fraction of
    # all entries is 0.1 * density.
    X = (rng.random((500, 200)) < 0.4).astype(np.float64)
    spec = PerturbationSpec("features", "bernoulli_flip", 0.1, seed=1)
    _, noisy = perturb(er, X, spec)
    flipped = np.mean(noisy != X)
    expected = 0.1 * np.count_nonzero(X) / X.size
    assert abs(flipped - expected) <= FLIP_RATE_BAND
    assert set(np.unique(noisy)) <= {0.0, 1.0}


def test_bernoulli_ratio_above_one_saturates(er):
    X = np.ones((10, 10))
    spec = PerturbationSpec("features", "bernoulli_flip", 2.0, seed=0)
    _, noisy = perturb(er, X, spec)
    np.testing.assert_array_equal(noisy, 0.0)  # p = min(1, 2*1) = 1: all flip


def test_zero_value_identities(er, rng):
    X = (rng.random((30, 4)) < 0.5).astype(np.float64)
    g, out = perturb(er, X, PerturbationSpec("features", "bernoulli_flip", 0.0))
    assert g is er and out is not None
    np.testing.assert_array_equal(out, X)
    g, out = perturb(er, X, PerturbationSpec("features", "gaussian", 0.0))
    assert g is er
    np.testing.assert_array_equal(out, X)
    g, out = perturb(er, X, PerturbationSpec("edges", "edge_ratio", 1.0))
    assert g is er


def test_gaussian_noise_scale(er, rng):
    X = np.zeros((200, 50))
    spec = PerturbationSpec("features", "gaussian", 0.3, seed=2)
    _, noisy = perturb(er, X, spec)
    assert np.std(noisy) == pytest.approx(0.3, rel=0.05)


def test_edge_ratio_removal_exact_count():
    g = random_er_graph(60, 5.0, np.random.default_rng(3))
    m = g.num_edges
    spec = PerturbationSpec("edges", "edge_ratio", 0.5, seed=0)
    g2, _ = perturb(g, np.zeros((60, 1)), spec)
    assert g2.num_edges == round(0.5 * m)


def test_edge_ratio_addition_exact_count():
    g = random_er_graph(40, 3.0, np.random.default_rng(4))
    m = g.num_edges
    spec = PerturbationSpec("edges", "edge_ratio", 2.0, seed=0)
    g2, _ = perturb(g, np.zeros((40, 1)), spec)
    assert g2.num_edges == round(2.0 * m)
    # surviving original edges keep their weights (all 1.0 here)
    assert np.all(g2.adjacency.csr.data == 1.0)


def test_edge_ratio_can_fill_the_graph_to_complete():
    g = build_graph(8, [(i, i + 1, 2.0) for i in range(7)] + [(3, 3, 1.0)])
    spec = PerturbationSpec("edges", "edge_ratio", 4.0, seed=2)  # 7 -> 28 pairs
    g2, _ = perturb(g, np.zeros((8, 1)), spec)
    assert g2.num_edges == 28 + 1
    a = g2.adjacency.to_dense()
    assert np.all(a[~np.eye(8, dtype=bool)] > 0.0)
    assert a[3, 3] == 1.0 and a[0, 1] == 2.0 and a[0, 2] == 1.0


def test_edge_ratio_preserves_loops_and_weights():
    g = build_graph(4, [(0, 0, 2.0), (0, 1, 3.0), (1, 2, 1.0), (2, 3, 1.0)])
    spec = PerturbationSpec("edges", "edge_ratio", 2.0, seed=1)
    g2, _ = perturb(g, np.zeros((4, 1)), spec)
    a = g2.adjacency.to_dense()
    assert a[0, 0] == pytest.approx(2.0)
    assert a[0, 1] == pytest.approx(3.0)


def test_edge_ratio_overfull_raises():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])  # complete K3
    spec = PerturbationSpec("edges", "edge_ratio", 2.0, seed=0)
    with pytest.raises(ValueError, match="available pairs"):
        perturb(g, np.zeros((3, 1)), spec)


def test_determinism(er, rng):
    X = (rng.random((30, 4)) < 0.5).astype(np.float64)
    spec = PerturbationSpec("features", "bernoulli_flip", 0.4, seed=9)
    _, a = perturb(er, X, spec)
    _, b = perturb(er, X, spec)
    np.testing.assert_array_equal(a, b)
