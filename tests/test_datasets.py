"""Synthetic generators: structure, determinism, splits, citation loading."""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_graph, write_citation_fixture
from ufg import datasets
from ufg.datasets import (
    BinaryFeatures,
    CitationData,
    GaussianFeatures,
    GraphData,
    SBMData,
    check_seed,
    cycle_graph,
    cycles_and_stars,
    generate_sbm,
    graph_split_sizes,
    load_citation,
    random_er_graph,
    sample_pairs,
    sbm_graph_family,
    split_counts,
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
    assert (a.csr != a.csr.T).nnz == 0
    assert np.all(a.csr.diagonal() == 0.0)  # no self loops


def test_er_graph_deterministic():
    a = random_er_graph(50, 3.0, np.random.default_rng(4))
    b = random_er_graph(50, 3.0, np.random.default_rng(4))
    np.testing.assert_array_equal(a.adjacency.csr.toarray(), b.adjacency.csr.toarray())


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


def _sample_pairs_by_unique(n, m, rng, taken=None):
    """``sample_pairs`` with each batch's first draws found by
    ``np.unique(return_index=True)``, whose stable sort keeps the first
    draw of every code, and put back in draw order by a second sort."""
    seen = np.asarray([] if taken is None else taken, dtype=np.int64)
    pairs = n * (n - 1) // 2
    start, stop = seen.size, seen.size + m
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


class _LoopsFirstRng(_CountingRng):
    """Draws only loops in its first batch, so that batch has no fresh code."""

    def integers(self, low, high, size):
        if self.batches < 1:
            self.batches += 0.5
            return np.zeros(size, dtype=np.int64)
        return super().integers(low, high, size)


def _taken_half(n, seed):
    u, v = np.triu_indices(n, 1)
    return np.random.default_rng(seed).permutation(u * n + v)[: u.size // 2]


@pytest.mark.parametrize("n, m, taken, min_batches", [
    (2000, 10_000, None, 1),  # sparse: repeats are rare
    (2000, 10_000, _taken_half(2000, 1)[:5000], 1),
    (64, 1280, None, 1),  # dense: average degree 40, many repeats
    (64, 2000, None, 3),  # denser still, over several batches
    (64, 1008, _taken_half(64, 2), 3),
    (30, 435, None, 3),  # the last free pairs
    (30, 218, _taken_half(30, 3), 3),
])
def test_sample_pairs_keeps_the_first_draw_of_each_code_in_draw_order(
    n, m, taken, min_batches
):
    for seed in range(3):
        rng = _CountingRng(seed)
        got = sample_pairs(n, m, rng, taken=taken)
        np.testing.assert_array_equal(
            got, _sample_pairs_by_unique(n, m, np.random.default_rng(seed), taken))
        assert rng.batches >= min_batches
    # A first batch of loops only leaves nothing fresh to sort.
    rng = _LoopsFirstRng(7)
    want_rng = _LoopsFirstRng(7)
    np.testing.assert_array_equal(sample_pairs(n, m, rng, taken=taken),
                                  _sample_pairs_by_unique(n, m, want_rng, taken))
    assert rng.batches >= 2


def _largest_codable_n():
    """The largest n whose largest pair code, n^2 - n - 1, fits int64."""
    n = math.isqrt(np.iinfo(np.int64).max)
    while (n + 1) ** 2 - (n + 1) - 1 <= np.iinfo(np.int64).max:
        n += 1
    return n


def test_sample_pairs_refuses_an_n_whose_codes_overflow():
    n = _largest_codable_n()
    codes = sample_pairs(n, 50, np.random.default_rng(0))
    u, v = np.divmod(codes, n)
    assert codes.dtype == np.int64 and np.unique(codes).size == 50
    assert np.all((0 <= u) & (u < v) & (v < n))
    for bad in (n + 1, 4_000_000_000):
        with pytest.raises(ValueError, match=f"n = {bad} is too large"):
            sample_pairs(bad, 1, np.random.default_rng(0))


def test_sample_pairs_refuses_a_negative_count():
    with pytest.raises(ValueError, match="m must be >= 0, got -1"):
        sample_pairs(10, -1, np.random.default_rng(0))


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
    triangles = generate_sbm([3, 3], 1.0, 0.0).graph.adjacency.csr.toarray()
    np.testing.assert_array_equal(triangles, np.kron(np.eye(2), 1.0 - np.eye(3)))
    k44 = generate_sbm([4, 4], 0.0, 1.0).graph.adjacency.csr.toarray()
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


@pytest.mark.parametrize("make", [cycles_and_stars, sbm_graph_family])
def test_graph_tasks_refuse_a_negative_graph_count(make):
    # NumPy used to refuse it with "negative dimensions are not allowed".
    with pytest.raises(ValueError, match="num_per_class must be >= 0, got -3"):
        make(-3)
    assert make(0) == []


@pytest.mark.parametrize("avg_degree", [float("nan"), float("inf"), -1.0])
def test_random_er_graph_refuses_a_bad_average_degree(avg_degree):
    # nan used to give the complete graph: min(1, nan / (n - 1)) is 1.
    with pytest.raises(ValueError, match="avg_degree must be finite and >= 0"):
        random_er_graph(30, avg_degree, 0)
    assert random_er_graph(30, 0.0, 0).num_edges == 0


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None, np.int64(-2)])
def test_check_seed_names_the_setting(seed):
    with pytest.raises(ValueError, match="data_seed must be a nonnegative integer, got"):
        check_seed(seed, "data_seed")


def test_check_seed_takes_nonnegative_integers():
    for seed in (0, 7, np.int64(3)):
        check_seed(seed, "seed")


def _same_node_data(a, b):
    np.testing.assert_array_equal(a.graph.adjacency.csr.toarray(),
                                  b.graph.adjacency.csr.toarray())
    for name in ("features", "labels", "train_mask", "val_mask", "test_mask"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_sbm_data_takes_the_feature_model_defaults():
    assert (SBMData().feature_dim, SBMData().feature_noise) == (16, 0.5)
    assert (GaussianFeatures().dim, GaussianFeatures().noise_std) == (16, 0.5)
    binary = SBMData(feature_model="binary")
    assert (binary.feature_dim, binary.feature_noise) == (BinaryFeatures().dim, None)
    # A default spelled out is the same spec.
    assert SBMData(feature_dim=16, feature_noise=0.5) == SBMData()
    assert SBMData(feature_noise=0.0).feature_noise == 0.0
    assert SBMData(feature_model="binary", feature_dim=6).feature_dim == 6


def test_sbm_data_makes_its_generate_sbm_dataset():
    spec = SBMData(sbm_sizes=(10, 12), p_in=0.3, feature_model="binary", feature_dim=6,
                   data_seed=3)
    _same_node_data(spec.make(), generate_sbm([10, 12], 0.3, 0.01, BinaryFeatures(6),
                                              seed=3))
    _same_node_data(SBMData(sbm_sizes=(10, 12), feature_noise=0.2).make(),
                    generate_sbm([10, 12], 0.1, 0.01, GaussianFeatures(16, 0.2)))


@pytest.mark.parametrize("settings, message", [
    ({"feature_model": "binary", "feature_noise": 0.5},
     "feature_noise does not apply to feature_model 'binary'"),
    ({"feature_model": "onehot"}, "unknown feature_model 'onehot'"),
    ({"data_seed": -1}, "data_seed must be a nonnegative integer, got -1"),
    ({"feature_dim": 0}, "feature dim must be >= 1"),
    ({"feature_noise": float("nan")}, "noise std must be finite"),
])
def test_sbm_data_refuses_bad_settings(settings, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SBMData(**settings)


@pytest.mark.parametrize("graph, message", [
    ({"p_in": 2.0, "sbm_sizes": (0, 5)}, "got p_in = 2.0"),
    ({"p_out": float("nan")}, "got p_out = nan"),
    ({"p_out": -0.5}, "got p_out = -0.5"),
    ({"sbm_sizes": (0, 5)}, "every block must be nonempty"),
    ({"sbm_sizes": ()}, "every block must be nonempty"),
])
def test_sbm_data_refuses_an_impossible_graph_when_built(graph, message):
    # A spec that names no drawable graph gets no fingerprint: it fails when
    # built, with the message generate_sbm gives for the same settings.
    with pytest.raises(ValueError, match=re.escape(message)):
        SBMData(**graph)
    spec = {"sbm_sizes": (3, 3), "p_in": 0.1, "p_out": 0.01, **graph}
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_sbm(spec["sbm_sizes"], spec["p_in"], spec["p_out"])


def test_graph_data_makes_its_task():
    for task, make in datasets.GRAPH_TASKS.items():
        got = GraphData(task=task, num_per_class=4, data_seed=1).make()
        want = make(4, seed=1)
        assert [s.label for s in got] == [s.label for s in want]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.graph.adjacency.csr.toarray(),
                                          b.graph.adjacency.csr.toarray())
    with pytest.raises(ValueError, match="unknown task 'rings'"):
        GraphData(task="rings")
    with pytest.raises(ValueError, match="data_seed must be a nonnegative integer"):
        GraphData(data_seed=-1)


@pytest.mark.parametrize("count", [0, -1])
def test_graph_data_refuses_fewer_than_one_graph_per_class_when_built(count):
    with pytest.raises(ValueError, match=rf"num_per_class must be >= 4, got {count}: "
                                         "too few for an 80/10/10 split"):
        GraphData(num_per_class=count)


def test_graph_split_sizes_leave_a_test_graph_from_four_per_class():
    assert [graph_split_sizes(m) for m in (8, 10, 20, 200)] == [
        (6, 1), (8, 1), (16, 2), (160, 20)]
    for count in (1, 2, 3):
        with pytest.raises(ValueError, match=f"^{2 * count} graphs are too few "
                                             r"for an 80/10/10 split$"):
            graph_split_sizes(2 * count)
        with pytest.raises(ValueError, match=f"^num_per_class must be >= 4, got {count}: "
                                             r"too few for an 80/10/10 split$"):
            GraphData(num_per_class=count)
    GraphData(num_per_class=4)


def test_split_counts_are_what_stratified_split_draws():
    for size in range(1, 40):
        labels = np.zeros(size, dtype=int)
        masks = stratified_split(labels, (0.1, 0.2), np.random.default_rng(size))
        assert split_counts(size, (0.1, 0.2)).tolist() == [int(m.sum()) for m in masks]


@pytest.mark.parametrize("sizes, empty", [((2, 2), "test"), ((1, 1), "val, test")])
def test_sbm_data_refuses_blocks_too_small_for_every_split_when_built(sizes, empty):
    with pytest.raises(ValueError, match=f"no nodes in: {empty}$"):
        SBMData(sbm_sizes=sizes)
    # A split needs a node of some block, not of every block.
    assert SBMData(sbm_sizes=(1, 5)).make().test_mask.sum() == 3


def test_load_citation_round_trip(tmp_path):
    graph, features, labels = write_citation_fixture(tmp_path)
    data = load_citation(tmp_path)
    assert data.graph.num_nodes == graph.num_nodes
    np.testing.assert_allclose(data.features, features)
    np.testing.assert_array_equal(data.labels, labels)
    assert data.train_mask.sum() == 2
    assert data.test_mask.sum() == 6


def test_load_citation_size_mismatch_warns(tmp_path):
    write_citation_fixture(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["train_size"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.warns(UserWarning, match="train_size"):
        load_citation(tmp_path)


def test_load_citation_structure_mismatch_raises(tmp_path):
    write_citation_fixture(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["num_nodes"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="num_nodes"):
        load_citation(tmp_path)


def test_load_citation_bad_split_indices(tmp_path):
    write_citation_fixture(tmp_path)
    # 10**30 does not fit an int64 either.
    for bad in (99, -1, 10**30):
        (tmp_path / "splits.json").write_text(
            json.dumps({"train": [0, bad], "val": [2], "test": [3]})
        )
        with pytest.raises(ValueError, match="train split indices out of range"):
            load_citation(tmp_path)


@pytest.mark.parametrize("bad", [2.7, True, 2.0, "2"])
def test_load_citation_rejects_a_split_index_that_is_not_an_integer(tmp_path, bad):
    write_citation_fixture(tmp_path)
    (tmp_path / "splits.json").write_text(
        json.dumps({"train": [0, 1], "val": [bad, 3], "test": [4, 5]})
    )
    with pytest.raises(ValueError, match="val split must be a list of integer"):
        load_citation(tmp_path)


def test_load_citation_rejects_a_node_in_two_splits(tmp_path, capsys):
    from ufg.cli import main

    write_citation_fixture(tmp_path)
    (tmp_path / "splits.json").write_text(
        json.dumps({"train": [0, 1, 2], "val": [2, 3], "test": [3, 4, 5]})
    )
    with pytest.raises(ValueError, match="splits share nodes: train/val, val/test$"):
        load_citation(tmp_path)
    assert main(["train-node", "--data-dir",
                 str(tmp_path), "--epochs", "1", "--seeds", "0"]) == 2
    assert "splits share nodes" in capsys.readouterr().err


def test_load_citation_rejects_an_empty_split(tmp_path):
    write_citation_fixture(tmp_path)
    (tmp_path / "splits.json").write_text(
        json.dumps({"train": [0, 1], "val": [], "test": [2, 3]})
    )
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest.update(val_size=0, test_size=2)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="no nodes in: val$"):
        load_citation(tmp_path)


SPLITS_RULE = 'splits.json: must be an object with "train", "val" and "test" lists'


@pytest.mark.parametrize("name, text, message", [
    ("splits.json", json.dumps({"train": [0, 1], "val": [2, 3]}), SPLITS_RULE),
    ("splits.json", json.dumps([[0, 1], [2, 3], [4, 5]]), SPLITS_RULE),
    ("manifest.json", json.dumps([10, 3, 2]),
     "manifest.json: must be an object of expected sizes"),
    ("splits.json", '{"train": [0, 1],', "splits.json: invalid JSON: "),
    ("manifest.json", "{num_nodes: 10}", "manifest.json: invalid JSON: "),
], ids=["missing split", "splits list", "manifest list", "splits syntax",
        "manifest syntax"])
def test_load_citation_names_the_file_of_a_malformed_json(
    tmp_path, capsys, name, text, message
):
    from ufg.cli import main

    write_citation_fixture(tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError) as info:
        load_citation(tmp_path)
    assert str(info.value).startswith(message)
    assert main(["train-node", "--data-dir",
                 str(tmp_path), "--epochs", "1", "--seeds", "0"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_train_node_rejects_negative_citation_labels(tmp_path, capsys):
    from ufg.cli import main

    _, _, labels = write_citation_fixture(tmp_path)
    labels[5] = -1
    (tmp_path / "labels.txt").write_text("".join(f"{y}\n" for y in labels))
    assert main(["train-node", "--data-dir",
                 str(tmp_path), "--epochs", "1", "--seeds", "0"]) == 2
    assert "labels.txt:6: labels must be nonnegative" in capsys.readouterr().err


def test_train_node_citation_summary_names_its_data_dir(tmp_path, capsys):
    from ufg.cli import main

    write_citation_fixture(tmp_path)
    assert main(["train-node", "--data-dir",
                 str(tmp_path), "--epochs", "1", "--seeds", "0"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["data"] == {"data_dir": str(tmp_path)}


def test_citation_data_makes_its_load_citation_dataset(tmp_path):
    write_citation_fixture(tmp_path)
    _same_node_data(CitationData(str(tmp_path)).make(), load_citation(tmp_path))


def test_load_citation_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_citation(tmp_path / "nope")
