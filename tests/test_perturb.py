"""Noise models: flip-rate calibration, edge-count targeting, determinism."""

import numpy as np
import pytest

from ufg import perturb as perturb_mod
from ufg.datasets import random_er_graph
from ufg.graphs import build_graph
from ufg.perturb import PerturbationSpec, perturb

# Monte Carlo band for the Bernoulli flip rate on 1e5 entries.
FLIP_RATE_BAND = 0.005


@pytest.fixture
def er(rng):
    return random_er_graph(30, 3.0, rng)


def test_spec_validation():
    PerturbationSpec("bernoulli_flip", 0.5)
    with pytest.raises(ValueError, match="model"):
        PerturbationSpec("dropout", 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        PerturbationSpec("gaussian", -0.1)


# Ids name what each model perturbs: the features or the edges.
@pytest.mark.parametrize(
    "model, value",
    [
        pytest.param("gaussian", float("nan"), id="features-gaussian-nan"),
        pytest.param("gaussian", float("inf"), id="features-gaussian-inf"),
        pytest.param("bernoulli_flip", float("-inf"), id="features-bernoulli_flip--inf"),
        pytest.param("edge_ratio", float("nan"), id="edges-edge_ratio-nan"),
        pytest.param("edge_ratio", float("inf"), id="edges-edge_ratio-inf"),
        pytest.param("edge_ratio", -1.0, id="edges-edge_ratio--1.0"),
    ],
)
def test_spec_requires_finite_nonnegative_value(model, value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        PerturbationSpec(model, value)


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_spec_requires_a_nonnegative_integer_seed(seed):
    # NumPy used to refuse -1 only when the perturbation ran.
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        PerturbationSpec("gaussian", 0.5, seed)


def test_bernoulli_requires_binary(er, rng):
    X = rng.normal(size=(30, 4))
    with pytest.raises(ValueError, match="0/1"):
        perturb(er, X, PerturbationSpec("bernoulli_flip", 0.5))


def test_bernoulli_flip_rate_calibration(er, rng):
    # ratio 0.1 relative to the nonzero count: expected flipped fraction of
    # all entries is 0.1 * density.
    X = (rng.random((500, 200)) < 0.4).astype(np.float64)
    spec = PerturbationSpec("bernoulli_flip", 0.1, seed=1)
    _, noisy = perturb(er, X, spec)
    flipped = np.mean(noisy != X)
    expected = 0.1 * np.count_nonzero(X) / X.size
    assert abs(flipped - expected) <= FLIP_RATE_BAND
    assert set(np.unique(noisy)) <= {0.0, 1.0}


def test_bernoulli_ratio_above_one_saturates(er):
    X = np.ones((10, 10))
    spec = PerturbationSpec("bernoulli_flip", 2.0, seed=0)
    _, noisy = perturb(er, X, spec)
    np.testing.assert_array_equal(noisy, 0.0)  # p = min(1, 2*1) = 1: all flip


def test_zero_value_identities(er, rng):
    X = (rng.random((30, 4)) < 0.5).astype(np.float64)
    g, out = perturb(er, X, PerturbationSpec("bernoulli_flip", 0.0))
    assert g is er and out is not None
    np.testing.assert_array_equal(out, X)
    g, out = perturb(er, X, PerturbationSpec("gaussian", 0.0))
    assert g is er
    np.testing.assert_array_equal(out, X)
    g, out = perturb(er, X, PerturbationSpec("edge_ratio", 1.0))
    assert g is er


def test_gaussian_noise_scale(er, rng):
    X = np.zeros((200, 50))
    spec = PerturbationSpec("gaussian", 0.3, seed=2)
    _, noisy = perturb(er, X, spec)
    assert np.std(noisy) == pytest.approx(0.3, rel=0.05)


def test_edge_ratio_removal_exact_count():
    g = random_er_graph(60, 5.0, np.random.default_rng(3))
    m = g.num_edges
    spec = PerturbationSpec("edge_ratio", 0.5, seed=0)
    g2, _ = perturb(g, np.zeros((60, 1)), spec)
    assert g2.num_edges == round(0.5 * m)


def test_edge_ratio_addition_exact_count():
    g = random_er_graph(40, 3.0, np.random.default_rng(4))
    m = g.num_edges
    spec = PerturbationSpec("edge_ratio", 2.0, seed=0)
    g2, _ = perturb(g, np.zeros((40, 1)), spec)
    assert g2.num_edges == round(2.0 * m)
    # surviving original edges keep their weights (all 1.0 here)
    assert np.all(g2.adjacency.csr.data == 1.0)


def test_edge_ratio_can_fill_the_graph_to_complete():
    g = build_graph(8, [(i, i + 1, 2.0) for i in range(7)] + [(3, 3, 1.0)])
    spec = PerturbationSpec("edge_ratio", 4.0, seed=2)  # 7 -> 28 pairs
    g2, _ = perturb(g, np.zeros((8, 1)), spec)
    assert g2.num_edges == 28 + 1
    a = g2.adjacency.csr.toarray()
    assert np.all(a[~np.eye(8, dtype=bool)] > 0.0)
    assert a[3, 3] == 1.0 and a[0, 1] == 2.0 and a[0, 2] == 1.0


def test_edge_ratio_preserves_loops_and_weights():
    g = build_graph(4, [(0, 0, 2.0), (0, 1, 3.0), (1, 2, 1.0), (2, 3, 1.0)])
    spec = PerturbationSpec("edge_ratio", 2.0, seed=1)
    g2, _ = perturb(g, np.zeros((4, 1)), spec)
    a = g2.adjacency.csr.toarray()
    assert a[0, 0] == pytest.approx(2.0)
    assert a[0, 1] == pytest.approx(3.0)


def test_edge_ratio_pair_codes_do_not_overflow_int32_indices(monkeypatch):
    # Adjacency indices are int32, and int32 ``u * n + v`` wraps from
    # n = 46341; at n = 50000 the pair (49998, 49999) codes to about 2.5e9.
    n = 50_000
    original = [(0, 49_999, 2.0), (12_345, 40_000, 3.0), (49_998, 49_999, 4.0)]
    graph = build_graph(n, original)
    assert graph.adjacency.csr.indices.dtype == np.int32
    calls = []
    sample_pairs = perturb_mod.sample_pairs

    def spy(n_, m, rng, taken=None):
        codes = sample_pairs(n_, m, rng, taken=taken)
        calls.append((taken, codes))
        return codes

    monkeypatch.setattr(perturb_mod, "sample_pairs", spy)
    spec = PerturbationSpec("edge_ratio", 3.0, seed=0)  # 3 -> 9 edges
    g2, _ = perturb(graph, np.zeros((n, 1)), spec)
    [(taken, codes)] = calls
    assert sorted(zip(taken // n, taken % n)) == [(u, v) for u, v, _ in original]
    u, v = codes // n, codes % n
    assert np.all((0 <= u) & (u < v) & (v < n))
    assert g2.num_edges == 9
    a = g2.adjacency.csr
    for p, q, w in original:
        assert a[p, q] == a[q, p] == w


def test_edge_ratio_overfull_raises():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])  # complete K3
    spec = PerturbationSpec("edge_ratio", 2.0, seed=0)
    with pytest.raises(ValueError, match="available pairs"):
        perturb(g, np.zeros((3, 1)), spec)


def test_determinism(er, rng):
    X = (rng.random((30, 4)) < 0.5).astype(np.float64)
    spec = PerturbationSpec("bernoulli_flip", 0.4, seed=9)
    _, a = perturb(er, X, spec)
    _, b = perturb(er, X, spec)
    np.testing.assert_array_equal(a, b)
