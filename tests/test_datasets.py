"""Synthetic generators: structure, determinism, splits, citation loading."""

import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufg import datasets
from ufg.datasets import (
    BinaryFeatures,
    GaussianFeatures,
    cycle_graph,
    cycles_and_stars,
    generate_sbm,
    load_citation,
    path_graph,
    random_er_graph,
    sample_pairs,
    sbm_graph_family,
    star_graph,
    stratified_split,
)


def test_path_cycle_star_structure():
    p = path_graph(5)
    assert p.num_edges == 4
    np.testing.assert_array_equal(p.degrees, [1, 2, 2, 2, 1])
    c = cycle_graph(5)
    assert c.num_edges == 5
    np.testing.assert_array_equal(c.degrees, 2)
    s = star_graph(5)
    assert s.num_edges == 4
    np.testing.assert_array_equal(s.degrees, [4, 1, 1, 1, 1])


@given(st.integers(2, 80), st.floats(0.5, 6.0), st.integers(0, 20))
@settings(max_examples=20)
def test_er_graph_properties(n, avg_deg, seed):
    g = random_er_graph(n, avg_deg, np.random.default_rng(seed))
    assert g.num_nodes == n
    a = g.adjacency
    assert a.max_abs_asymmetry() == 0.0
    assert np.all(a.csr.diagonal() == 0.0)  # no self loops


def test_er_graph_deterministic():
    a = random_er_graph(50, 3.0, np.random.default_rng(4))
    b = random_er_graph(50, 3.0, np.random.default_rng(4))
    np.testing.assert_array_equal(a.adjacency.to_dense(), b.adjacency.to_dense())


def test_er_graph_large_sampling_path():
    # Every n >= 2 draws its edges with sample_pairs; at n = 700, check the
    # edge count is plausible.
    g = random_er_graph(700, 2.0, np.random.default_rng(0))
    assert g.num_nodes == 700
    expected = 700 * 2.0 / 2
    assert 0.5 * expected <= g.num_edges <= 1.5 * expected
    assert np.all(g.adjacency.csr.diagonal() == 0.0)


def test_er_graph_tiny():
    assert random_er_graph(1, 3.0, np.random.default_rng(0)).num_edges == 0


def test_er_graph_at_probability_one_is_complete():
    g = random_er_graph(12, 20.0, np.random.default_rng(0))
    assert g.num_edges == 12 * 11 // 2
    assert np.all(g.degrees == 11)


def test_sample_pairs_are_distinct_free_pairs():
    n = 30
    taken = np.array([0 * n + 1, 2 * n + 7, 5 * n + 29, 27 * n + 28])
    codes = sample_pairs(n, 200, np.random.default_rng(1), taken=taken)
    assert codes.dtype == np.int64 and codes.shape == (200,)
    assert np.unique(codes).size == 200
    assert np.all(codes // n < codes % n)
    assert not np.any(np.isin(codes, taken))


# Uniformity of sample_pairs: each of the 10 pairs left free at n = 6 is
# drawn with probability 3/10; over 4000 draws of 3 pairs its frequency
# has standard deviation 0.0072, so 0.03 is a band of about 4 sigma.
UNIFORM_TRIALS = 4000
UNIFORM_BAND = 0.03


def test_sample_pairs_draws_free_pairs_uniformly():
    n = 6
    upper = [u * n + v for u in range(n) for v in range(u + 1, n)]
    taken = np.array(upper[::3])  # 5 of the 15 pairs
    free = sorted(set(upper) - set(taken.tolist()))
    rng = np.random.default_rng(3)
    counts = dict.fromkeys(upper, 0)
    for _ in range(UNIFORM_TRIALS):
        for code in sample_pairs(n, 3, rng, taken=taken).tolist():
            counts[code] += 1
    assert all(counts[c] == 0 for c in taken.tolist())
    freq = np.array([counts[c] for c in free]) / UNIFORM_TRIALS
    assert np.all(np.abs(freq - 0.3) <= UNIFORM_BAND), freq


def test_sample_pairs_fills_every_free_pair_and_no_more():
    n, taken = 7, np.array([1, 9, 20])
    codes = sample_pairs(n, 21 - 3, np.random.default_rng(4), taken=taken)
    assert sorted(codes.tolist() + taken.tolist()) == sorted(
        u * n + v for u in range(n) for v in range(u + 1, n)
    )
    with pytest.raises(ValueError, match="exceeds the number of available pairs"):
        sample_pairs(n, 21 - 2, np.random.default_rng(4), taken=taken)


class _CountingRng:
    def __init__(self, seed):
        self.rng, self.batches = np.random.default_rng(seed), 0

    def integers(self, low, high, size):
        self.batches += 0.5  # one call for u, one for v
        return self.rng.integers(low, high, size=size)


@pytest.mark.parametrize("keep", [3, 19900])
def test_sample_pairs_takes_the_last_free_pairs_in_few_batches(keep):
    # Batches of 2 * need + 8 would take thousands of batches to find the
    # last few of the 19900 pairs at n = 200.
    n = 200
    upper = np.array([u * n + v for u in range(n) for v in range(u + 1, n)])
    free = np.random.default_rng(5).permutation(upper)[:keep]
    rng = _CountingRng(6)
    codes = sample_pairs(n, keep, rng, taken=np.setdiff1d(upper, free))
    np.testing.assert_array_equal(np.sort(codes), np.sort(free))
    assert rng.batches <= 12


def test_complete_graph_on_1000_nodes_is_drawn_in_under_a_second():
    # Filling all 499500 pairs takes 8 batches of about 10^6 draws each; a
    # sampler that re-sorts every code kept so far on each batch needs
    # seconds. Best of two runs, to ride out a busy host.
    times = []
    for _ in range(2):
        start = time.perf_counter()
        graph = random_er_graph(1000, 999.0, 0)
        times.append(time.perf_counter() - start)
    assert graph.num_edges == 1000 * 999 // 2
    assert min(times) < 1.0, times


def test_stratified_split_fractions():
    labels = np.repeat([0, 1, 2], 50)
    train, val, test = stratified_split(labels, (0.1, 0.2), np.random.default_rng(0))
    assert not np.any(train & val) and not np.any(train & test) and not np.any(val & test)
    assert np.all(train | val | test)
    for cls in range(3):
        idx = labels == cls
        assert train[idx].sum() == 5
        assert val[idx].sum() == 10
        assert test[idx].sum() == 35


def test_stratified_split_minimum_one_train():
    labels = np.array([0, 0, 1])  # tiny class still gets a training node
    train, _, _ = stratified_split(labels, (0.1, 0.2), np.random.default_rng(0))
    assert train[labels == 1].sum() >= 1


@pytest.mark.parametrize(
    "sizes, empty", [([2, 2], "test"), ([1, 1], "val, test")]
)
def test_generate_sbm_rejects_blocks_too_small_for_every_split(sizes, empty):
    with pytest.raises(ValueError, match=f"no nodes in: {empty}$"):
        generate_sbm(sizes, 0.5, 0.1)


def test_generate_sbm_gaussian():
    data = generate_sbm([10, 15], 0.5, 0.05, GaussianFeatures(dim=4), seed=1)
    assert data.graph.num_nodes == 25
    assert data.features.shape == (25, 4)
    assert data.num_classes == 2
    np.testing.assert_array_equal(data.labels[:10], 0)
    np.testing.assert_array_equal(data.labels[10:], 1)
    again = generate_sbm([10, 15], 0.5, 0.05, GaussianFeatures(dim=4), seed=1)
    np.testing.assert_array_equal(data.features, again.features)


def test_generate_sbm_binary():
    fm = BinaryFeatures(dim=12, p_active=0.9, p_background=0.05)
    data = generate_sbm([30, 30, 30], 0.3, 0.02, fm, seed=2)
    assert set(np.unique(data.features)) <= {0.0, 1.0}
    # class dims fire much more often than background dims
    cls0 = data.features[data.labels == 0]
    assert cls0[:, :4].mean() > cls0[:, 4:].mean() + 0.3


def test_binary_features_split_dims_evenly_across_classes():
    # 11 dims over 3 classes: 3 dims each, and the last class takes the rest.
    data = generate_sbm([4, 4, 4], 0.5, 0.1, BinaryFeatures(11, 1.0, 0.0), seed=0)
    expected = np.zeros((12, 11))
    for cls, (lo, hi) in enumerate([(0, 3), (3, 6), (6, 11)]):
        expected[data.labels == cls, lo:hi] = 1.0
    np.testing.assert_array_equal(data.features, expected)


def test_generate_sbm_validation():
    with pytest.raises(ValueError, match="probabilities"):
        generate_sbm([5, 5], 1.5, 0.1)
    with pytest.raises(ValueError, match="nonempty"):
        generate_sbm([5, 0], 0.5, 0.1)
    with pytest.raises(ValueError, match="feature dim"):
        generate_sbm([5, 5, 5], 0.5, 0.1, BinaryFeatures(dim=2))
    with pytest.raises(TypeError, match="feature model"):
        generate_sbm([5, 5], 0.5, 0.1, feature_model="onehot")


@pytest.mark.parametrize(
    "model, kwargs, named",
    [
        (GaussianFeatures, {"dim": 0}, "feature dim"),
        (GaussianFeatures, {"noise_std": -1.0}, "noise std"),
        (GaussianFeatures, {"noise_std": float("nan")}, "noise std"),
        (GaussianFeatures, {"noise_std": float("inf")}, "noise std"),
        (BinaryFeatures, {"dim": 0}, "feature dim"),
        (BinaryFeatures, {"p_active": 1.7}, "p_active"),
        (BinaryFeatures, {"p_active": float("nan")}, "p_active"),
        (BinaryFeatures, {"p_background": -0.1}, "p_background"),
    ],
    ids=["gaussian-dim", "gaussian-negative", "gaussian-nan", "gaussian-inf",
         "binary-dim", "binary-active-above-one", "binary-active-nan",
         "binary-background-negative"],
)
def test_feature_models_reject_bad_values(model, kwargs, named):
    with pytest.raises(ValueError, match=named):
        model(**kwargs)


def test_generate_sbm_checks_binary_dim_before_drawing_edges(monkeypatch):
    def no_edges(*args, **kwargs):
        raise AssertionError("edges drawn")

    monkeypatch.setattr(datasets, "sample_pairs", no_edges)
    with pytest.raises(ValueError, match="feature dim smaller than the number of classes"):
        generate_sbm([5, 5, 5], 0.5, 0.1, BinaryFeatures(dim=2))


def _block_pair_edge_counts(data):
    """``(k, k)`` edge counts of an SBM dataset, block pair ``(a, b)`` with
    ``a <= b`` in the upper triangle (labels ascend with the node index)."""
    coo = data.graph.adjacency.csr.tocoo()
    upper = coo.row < coo.col
    counts = np.zeros((data.num_classes,) * 2, dtype=np.int64)
    np.add.at(counts, (data.labels[coo.row[upper]], data.labels[coo.col[upper]]), 1)
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generate_sbm_block_edge_counts_match_their_binomials(seed):
    sizes, p_in, p_out = [300, 200], 0.05, 0.01
    data = generate_sbm(sizes, p_in, p_out, seed=seed)
    # Every drawn pair is distinct: build_graph would sum a repeat to 2.
    np.testing.assert_array_equal(data.graph.adjacency.csr.data, 1.0)
    counts = _block_pair_edge_counts(data)
    for a, b in [(0, 0), (0, 1), (1, 1)]:
        pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
        p = p_in if a == b else p_out
        mean, std = pairs * p, np.sqrt(pairs * p * (1 - p))
        assert abs(counts[a, b] - mean) <= 4 * std, (a, b, counts[a, b], mean)


def test_generate_sbm_exact_cases():
    triangles = generate_sbm([3, 3], 1.0, 0.0).graph.adjacency.to_dense()
    np.testing.assert_array_equal(triangles, np.kron(np.eye(2), 1.0 - np.eye(3)))
    k44 = generate_sbm([4, 4], 0.0, 1.0).graph.adjacency.to_dense()
    np.testing.assert_array_equal(k44, np.kron(1.0 - np.eye(2), np.ones((4, 4))))


def test_generate_sbm_allocates_no_per_pair_array():
    # 5000 nodes have 12.5 million ordered pairs; one float per pair would be
    # 100 MB, while the ~27k edges, features and split need a few MB.
    tracemalloc.start()
    try:
        generate_sbm([2500, 2500], 0.004, 0.0004)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


def test_cycles_and_stars():
    samples = cycles_and_stars(num_per_class=8, size_range=(5, 9), seed=3)
    assert len(samples) == 16
    labels = [s.label for s in samples]
    assert labels.count(0) == labels.count(1) == 8
    for s in samples:
        assert 5 <= s.graph.num_nodes <= 9
        assert s.features.shape == (s.graph.num_nodes, 2)
        np.testing.assert_array_equal(s.features[:, 0], 1.0)
        np.testing.assert_array_equal(s.features[:, 1], s.graph.degrees)


def test_sbm_graph_family():
    samples = sbm_graph_family(num_per_class=3, size_range=(12, 16), seed=0)
    assert len(samples) == 6
    assert {s.label for s in samples} == {0, 1}


def _write_citation_fixture(root, n=10, d=3, num_classes=2):
    from ufg import io as ufg_io
    from ufg.graphs import build_graph

    rng = np.random.default_rng(0)
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    graph = build_graph(n, edges)
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


def test_load_citation_round_trip(tmp_path):
    graph, features, labels = _write_citation_fixture(tmp_path)
    data = load_citation(tmp_path)
    assert data.graph.num_nodes == graph.num_nodes
    np.testing.assert_allclose(data.features, features)
    np.testing.assert_array_equal(data.labels, labels)
    assert data.train_mask.sum() == 2
    assert data.test_mask.sum() == 6


def test_load_citation_size_mismatch_warns(tmp_path):
    _write_citation_fixture(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["train_size"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.warns(UserWarning, match="train_size"):
        load_citation(tmp_path)


def test_load_citation_structure_mismatch_raises(tmp_path):
    _write_citation_fixture(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["num_nodes"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="num_nodes"):
        load_citation(tmp_path)


def test_load_citation_bad_split_indices(tmp_path):
    _write_citation_fixture(tmp_path)
    # 10**30 does not fit an int64 either.
    for bad in (99, -1, 10**30):
        (tmp_path / "splits.json").write_text(
            json.dumps({"train": [0, bad], "val": [2], "test": [3]})
        )
        with pytest.raises(ValueError, match="train split indices out of range"):
            load_citation(tmp_path)


@pytest.mark.parametrize("bad", [2.7, True, 2.0, "2"])
def test_load_citation_rejects_a_split_index_that_is_not_an_integer(tmp_path, bad):
    _write_citation_fixture(tmp_path)
    (tmp_path / "splits.json").write_text(
        json.dumps({"train": [0, 1], "val": [bad, 3], "test": [4, 5]})
    )
    with pytest.raises(ValueError, match="val split must be a list of integer"):
        load_citation(tmp_path)


def test_load_citation_rejects_a_node_in_two_splits(tmp_path, capsys):
    from ufg.cli import main

    _write_citation_fixture(tmp_path)
    (tmp_path / "splits.json").write_text(
        json.dumps({"train": [0, 1, 2], "val": [2, 3], "test": [3, 4, 5]})
    )
    with pytest.raises(ValueError, match="splits share nodes: train/val, val/test$"):
        load_citation(tmp_path)
    assert main(["train-node", "--dataset", "citation", "--data-dir",
                 str(tmp_path), "--epochs", "1", "--seeds", "0"]) == 2
    assert "splits share nodes" in capsys.readouterr().err


def test_load_citation_rejects_an_empty_split(tmp_path):
    _write_citation_fixture(tmp_path)
    (tmp_path / "splits.json").write_text(
        json.dumps({"train": [0, 1], "val": [], "test": [2, 3]})
    )
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest.update(val_size=0, test_size=2)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="no nodes in: val$"):
        load_citation(tmp_path)


def test_train_node_rejects_negative_citation_labels(tmp_path, capsys):
    from ufg.cli import main

    _, _, labels = _write_citation_fixture(tmp_path)
    labels[5] = -1
    (tmp_path / "labels.txt").write_text("".join(f"{y}\n" for y in labels))
    assert main(["train-node", "--dataset", "citation", "--data-dir",
                 str(tmp_path), "--epochs", "1", "--seeds", "0"]) == 2
    assert "labels.txt:6: labels must be nonnegative" in capsys.readouterr().err


def test_train_node_citation_summary_names_its_data_dir(tmp_path, capsys):
    from ufg.cli import main

    _write_citation_fixture(tmp_path)
    assert main(["train-node", "--dataset", "citation", "--data-dir",
                 str(tmp_path), "--epochs", "1", "--seeds", "0"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["data"] == {"data_dir": str(tmp_path)}


def test_load_citation_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_citation(tmp_path / "nope")
