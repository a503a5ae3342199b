"""Experiment drivers: configs, records, training loops, denoising, bench."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import path_graph, write_citation_fixture

from ufg import experiments, graphs, nn, transform
from ufg.datasets import (
    CitationData,
    GaussianFeatures,
    GraphData,
    GraphSample,
    SBMData,
    cycle_graph,
    cycles_and_stars,
    generate_sbm,
    star_graph,
)
from ufg.experiments import (
    ExperimentConfig,
    MetricsRecord,
    bench_transform,
    build_node_operator,
    denoise_signal,
    fingerprint,
    majority_class_accuracy,
    train_graph_classifier,
    train_node_classifier,
)
from ufg.experiments import _GraphTask, _layer_activations
from ufg.graphs import eigendecompose, gcn_norm_adjacency, normalized_laplacian
from ufg.perturb import PerturbationSpec
from ufg.nn import (
    activation_signature,
    dropout_backward,
    dropout_forward,
    gcn_conv_backward,
    gcn_conv_forward,
    gradient_check,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax_cross_entropy,
    ufg_conv_backward,
    ufg_conv_forward,
    ufg_pool_backward,
    ufg_pool_forward,
)
from ufg.filters import haar_filter_bank
from ufg.shrinkage import ThresholdConfig
from ufg.transform import FrameletSystem, TransformSettings, decompose, framelet_operator

ROUNDTRIP_TOL = 1e-10
GRAD_TOL = 1e-5
# Batched and per-graph gradients differ only in summation order.
BATCH_TOL = 1e-12
# So do exact-mode losses trained on the training rows and on every node.
ROWS_TOL = 1e-12
POOL_MODES = ("sum", "spectrum", "mean")
# Label-shuffle control: informative features must beat shuffled labels by
# this margin, and the shuffled run must sit in a loose chance band.
SHUFFLE_GAP = 0.15
CHANCE_BAND = (0.25, 0.75)


@pytest.fixture(scope="module")
def sbm_data():
    return generate_sbm(
        [30, 30], 0.5, 0.02, GaussianFeatures(8, noise_std=0.3), seed=0
    )


@pytest.fixture(scope="module")
def quick_config():
    return ExperimentConfig(epochs=30, seeds=(0, 1, 2), hidden=8)


# ---------------------------------------------------------------- configs

def test_fingerprint_deterministic_and_sensitive(tmp_path):
    write_citation_fixture(tmp_path)
    config, data = ExperimentConfig(), SBMData()
    a = fingerprint(config, data)
    assert a == fingerprint(ExperimentConfig(), SBMData())
    assert len(a) == 12
    # The config, the data and the perturbation each name the run.
    others = {
        fingerprint(ExperimentConfig(lr=0.02), data),
        fingerprint(config, SBMData(sbm_sizes=(10, 10))),
        fingerprint(config, SBMData(feature_model="binary")),
        fingerprint(config, SBMData(data_seed=1)),
        fingerprint(config, data, PerturbationSpec("gaussian", 0.5, 1)),
        fingerprint(config, data, PerturbationSpec("gaussian", 0.5, 2)),
        fingerprint(config, GraphData()),
        fingerprint(config, CitationData(str(tmp_path))),
    }
    assert len(others) == 8 and a not in others
    # A default spelled out, or a NumPy scalar for a Python one, is the same run.
    assert fingerprint(config, SBMData(feature_dim=16, feature_noise=0.5)) == a
    assert fingerprint(ExperimentConfig(seeds=(0, np.int64(3))), data) == fingerprint(
        ExperimentConfig(seeds=(0, 3)), data)


def test_config_stores_the_transform_settings_it_holds():
    # ``dilation=2`` and ``2.0`` name one transform, so they are one run.
    data = SBMData()
    spelled = ExperimentConfig(dilation=2, levels=np.int64(2), degree=np.int32(16))
    default = ExperimentConfig()
    assert fingerprint(spelled, data) == fingerprint(default, data)
    assert spelled == default
    for name in ("dilation", "levels", "degree"):
        value = getattr(spelled, name)
        assert type(value) is type(getattr(spelled.transform, name))
        assert value == getattr(spelled.transform, name)
    assert type(spelled.dilation) is float and type(spelled.levels) is int


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": 0},
        {"activation": "tanh"},
        {"pool_mode": "max"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


# Training numbers the config refuses, each with the field its message names.
BAD_TRAINING_NUMBERS = [
    ("lr", -1.0), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
    ("weight_decay", -0.5), ("weight_decay", float("nan")),
    ("weight_decay", float("inf")),
    ("sigma", float("nan")), ("sigma", -1.0),
    ("dropout", 1.0), ("dropout", -0.1), ("dropout", float("nan")),
    ("patience", 0), ("patience", -3),
    ("hidden", 0),
]


@pytest.mark.parametrize("field, value", BAD_TRAINING_NUMBERS)
def test_config_rejects_bad_training_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_config_accepts_training_number_edges():
    ExperimentConfig(weight_decay=0.0, sigma=float("inf"), hidden=1, lr=1e-12,
                     dropout=0.0, patience=1)


# Before any dataset is generated or trained on: "exakt" failed only when the
# operator was built, and "bogus" trained as relu.
@pytest.mark.parametrize("field, value, message", [
    ("mode", "exakt", "unknown mode 'exakt'"),
    ("threshold_mode", "bogus", "unknown threshold mode 'bogus'"),
])
def test_config_rejects_an_unknown_mode(field, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{field: value})


# Transform settings no graph can build on: each of these got a config and
# a fingerprint, and a run generated its dataset before the operator failed.
@pytest.mark.parametrize("field, value, message", [
    ("levels", 0, "levels must be >= 1"),
    ("degree", -1, "degree must be nonnegative"),
    ("dilation", 1.0, "dilation must be finite and exceed 1"),
    ("dilation", float("inf"), "dilation must be finite and exceed 1"),
    # Training used to fail inside block_index with a TypeError.
    ("levels", 2.5, "levels must be an integer, got 2.5"),
    ("degree", 16.5, "degree must be an integer, got 16.5"),
])
def test_config_rejects_settings_no_transform_can_use(field, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{field: value})
    # One rule, one message: the transform refuses the same value the same way.
    with pytest.raises(ValueError, match=message):
        TransformSettings(**{field: value})


@pytest.mark.parametrize("seeds", [(), (1, 1), (0, 1, 2, 1)])
def test_config_rejects_empty_or_duplicate_seeds(seeds):
    with pytest.raises(ValueError, match="nonempty and distinct"):
        ExperimentConfig(seeds=seeds)


@pytest.mark.parametrize("seeds, shown", [
    ((-1,), "(-1,)"), ((0, -2), "(0, -2)"), ((1.5,), "(1.5,)"), (("0",), "('0',)"),
])
def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seeds, shown):
    # (-1,) used to build, and a run generated its dataset before NumPy
    # refused the seed.
    with pytest.raises(ValueError, match=rf"seeds must .*, got {re.escape(shown)}"):
        ExperimentConfig(seeds=seeds)
    assert ExperimentConfig(seeds=(0, np.int64(3))).seeds == (0, 3)


def test_config_rejects_a_dilation_that_overflows_on_every_graph():
    # Every normalized Laplacian has K <= 0, so its top filter argument is
    # at least d^(levels-1) * 2: 1e400 at levels 3, 2e200 at levels 2.
    with pytest.raises(ValueError, match="dilation 1e[+]200 overflows"):
        ExperimentConfig(dilation=1e200, levels=3)
    assert ExperimentConfig(dilation=1e200, levels=2).dilation == 1e200
    # The settings refuse it for every system, even one whose custom lam_max
    # above pi gives K > 0 and a finite top argument.
    with pytest.raises(ValueError, match="dilation 1e[+]200 overflows"):
        TransformSettings(dilation=1e200, levels=3)
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(dilation=1e100, levels=3), 1e150
    )
    assert system.K == 2


def test_config_takes_its_transform_defaults_from_the_system():
    config = ExperimentConfig()
    for name in ("dilation", "levels", "degree", "mode"):
        assert getattr(config, name) == getattr(TransformSettings, name)
    assert config.transform == TransformSettings()


def test_layer_activation_variants():
    config = ExperimentConfig(activation="shrinkage", sigma=2.0, threshold_mode="global")
    assert _layer_activations(config) == (ThresholdConfig(2.0, "global"),) * 2
    assert _layer_activations(ExperimentConfig(activation="relu")) == ("relu", None)
    # The CLI offers relu and shrinkage only; a layer without an activation
    # is not a model choice.
    with pytest.raises(ValueError, match="unknown activation 'none'"):
        ExperimentConfig(activation="none")


# ---------------------------------------------------------------- records

# A record derives its mean, std and failed seeds from what it is given.

def test_make_record_filters_nan_and_lists_failures():
    extra = {"task": "sbm_node"}
    rec = MetricsRecord([0.5, np.nan, 0.7], wall_clock=1.0, extra=extra)
    assert rec.mean == pytest.approx(0.6)
    assert rec.extra["failed_seeds"] == [1]
    assert rec.extra["task"] == "sbm_node"
    assert extra == {"task": "sbm_node"}  # the given dict is not written
    assert np.isnan(rec.per_seed[1])
    assert len(rec.per_seed) == 3
    assert isinstance(rec.per_seed, tuple)


def test_make_record_single_seed_has_zero_std():
    rec = MetricsRecord([0.8], wall_clock=0.1)
    assert rec.std == 0.0
    assert rec.mean == 0.8
    assert "failed_seeds" not in rec.extra


def test_make_record_all_failed_raises():
    with pytest.raises(ValueError, match="every seed failed"):
        MetricsRecord([np.nan, np.nan], wall_clock=0.1)


def test_make_record_zeroes_wall_clock_in_deterministic_mode(monkeypatch):
    monkeypatch.setenv("UFG_DETERMINISTIC", "1")
    rec = MetricsRecord([0.5], wall_clock=3.5)
    assert rec.wall_clock == 0.0
    monkeypatch.setenv("UFG_DETERMINISTIC", "0")
    rec2 = MetricsRecord([0.5], wall_clock=3.5)
    assert rec2.wall_clock == 3.5


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1, max_size=8,
    )
)
def test_make_record_mean_between_extremes(values):
    rec = MetricsRecord(values, wall_clock=0.0)
    assert min(values) - 1e-12 <= rec.mean <= max(values) + 1e-12
    assert rec.std >= 0.0


# ------------------------------------------------------- node classification

def test_node_classifier_smoke_and_bitwise_determinism(sbm_data, quick_config):
    rec1 = train_node_classifier(sbm_data, quick_config)
    rec2 = train_node_classifier(sbm_data, quick_config)
    assert len(rec1.per_seed) == 3
    assert all(0.0 <= a <= 1.0 for a in rec1.per_seed)
    assert rec1.per_seed == rec2.per_seed
    assert rec1.extra["task"] == "sbm_node"
    assert rec1.extra["activation"] == "relu"


def test_relu_then_shrinkage_on_one_dataset_eigendecomposes_once(monkeypatch):
    def dataset():
        return generate_sbm([20, 20], 0.4, 0.05, GaussianFeatures(4), seed=3)

    calls, stacks = [], []
    real, real_stack = graphs.eigendecompose, transform._exact_stack

    def counting(lap):
        calls.append(lap.num_rows)
        return real(lap)

    def counting_stack(system, spectrum):
        stacks.append(spectrum.values.size)
        return real_stack(system, spectrum)

    monkeypatch.setattr(graphs, "eigendecompose", counting)
    monkeypatch.setattr(transform, "_exact_stack", counting_stack)
    data = dataset()
    relu = ExperimentConfig(epochs=3, seeds=(0, 1), hidden=4)
    shrink = dataclasses.replace(relu, activation="shrinkage")
    train_node_classifier(data, relu)
    cached = train_node_classifier(data, shrink)
    # Both calls share the graph's spectrum and its one operator.
    assert calls == stacks == [40]
    # The shared spectrum and operator change nothing: a fresh equal
    # dataset, which eigendecomposes and builds again, trains to the same
    # record.
    fresh = train_node_classifier(dataset(), shrink)
    assert (fresh.per_seed, fresh.extra) == (cached.per_seed, cached.extra)
    assert calls == stacks == [40, 40]


def test_node_classifier_beats_label_shuffle(sbm_data, quick_config):
    rng = np.random.default_rng(42)
    shuffled = dataclasses.replace(
        sbm_data, labels=rng.permutation(sbm_data.labels)
    )
    informative = train_node_classifier(sbm_data, quick_config)
    control = train_node_classifier(shuffled, quick_config)
    assert CHANCE_BAND[0] <= control.mean <= CHANCE_BAND[1]
    assert informative.mean >= control.mean + SHUFFLE_GAP


def test_node_shrinkage_reports_compression(sbm_data):
    cfg = ExperimentConfig(
        activation="shrinkage", sigma=1.0, epochs=10, seeds=(0,), hidden=8
    )
    rec = train_node_classifier(sbm_data, cfg)
    assert 0.0 < rec.extra["compression_ratio"] <= 1.0


@pytest.mark.parametrize("task", ["node", "graph"])
def test_metrics_sink_rows(monkeypatch, sbm_data, task):
    sink: list = []
    rows_at_step = []
    real_step = experiments.adam_step

    def counting(*args, **kwargs):
        rows_at_step.append(len(sink))
        return real_step(*args, **kwargs)

    monkeypatch.setattr(experiments, "adam_step", counting)
    cfg = ExperimentConfig(epochs=4, patience=4, seeds=(0, 1), hidden=8)
    if task == "node":
        train_node_classifier(sbm_data, cfg, metrics_sink=sink)
    else:
        train_graph_classifier(cycles_and_stars(10, (5, 8), seed=0), cfg, sink)
    # Seed-major, then epoch, then split; the three rows share the loss.
    assert [(r["seed"], r["epoch"], r["split"]) for r in sink] == [
        (seed, epoch, split)
        for seed in (0, 1) for epoch in range(4) for split in ("train", "val", "test")
    ]
    assert set(sink[0]) == {"seed", "epoch", "split", "loss", "accuracy"}
    assert all(len({r["loss"] for r in sink[i : i + 3]}) == 1 for i in range(0, 24, 3))
    # Each epoch's rows reach the sink before the next Adam step.
    assert rows_at_step == [3 * k for k in range(8)]


def test_build_node_operator_chebyshev_path(sbm_data):
    cfg = ExperimentConfig(mode="chebyshev", degree=8, levels=1)
    op = build_node_operator(sbm_data, cfg)
    assert op.num_nodes == sbm_data.graph.num_nodes
    assert op.num_blocks == 2  # one high-pass level plus low pass


def _node_model_check(data, activation, hidden, corrupt=None):
    """``gradient_check`` of the node task's two-layer model, through the
    input coefficients; ``corrupt = (layer, name)`` scales that gradient by
    1.001 first. Returns the check and layer 1's forward cache."""
    cfg = ExperimentConfig(activation=activation, hidden=hidden)
    op = build_node_operator(data, cfg)
    coeff_x = decompose(op, data.features)
    acts = _layer_activations(cfg)
    rng = np.random.default_rng(4)
    d_in, classes = data.features.shape[1], data.num_classes
    params = {
        "l1": {"W": rng.normal(size=(d_in, hidden)) / np.sqrt(d_in),
               "theta": rng.uniform(0.9, 1.1, op.num_rows),
               "bias": rng.normal(size=hidden)},
        "l2": {"W": rng.normal(size=(hidden, classes)) / 2.0,
               "theta": rng.uniform(0.9, 1.1, op.num_rows),
               "bias": rng.normal(size=classes)},
    }

    def forward(p, frozen=(None, None)):
        h1, c1 = ufg_conv_forward(p["l1"], op, coeff_x, acts[0], frozen[0])
        # Seeded, so every evaluation drops the same entries.
        hd, cd = dropout_forward(h1, 0.5, 11)
        logits, c2 = ufg_conv_forward(p["l2"], op, hd, acts[1], frozen[1])
        return logits, (c1, cd, c2)

    logits, (c1, cd, c2) = forward(params)
    # Shrinkage thresholds are stop-gradient: hold the nominal ones fixed.
    frozen = (c1.get("thresholds"), c2.get("thresholds"))

    def loss_fn(p):
        out, caches = forward(p, frozen)
        loss, _ = softmax_cross_entropy(out, data.labels, data.train_mask)
        return loss, activation_signature(*caches)

    _, dlogits = softmax_cross_entropy(logits, data.labels, data.train_mask)
    g2, dh = ufg_conv_backward(c2, dlogits)
    g1, dX = ufg_conv_backward(c1, dropout_backward(cd, dh))
    assert dX is None
    grads = {"l1": g1, "l2": g2}
    if corrupt is not None:
        layer, name = corrupt
        grads[layer][name] = grads[layer][name] * 1.001
    return gradient_check(loss_fn, params, grads, max_coords=80, seed=3), c1


# hidden 4 is narrower than the 8 input features, so layer 1 projects
# first; at hidden 12 a ReLU layer 1 reconstructs first.
@pytest.mark.parametrize(
    "activation, hidden",
    [
        pytest.param("relu", 4, id="relu"),
        pytest.param("shrinkage", 4, id="shrinkage"),
        pytest.param("relu", 12, id="relu-hidden12"),
    ],
)
def test_node_model_gradients_through_input_coefficients(sbm_data, activation, hidden):
    (rel, checked, _), c1 = _node_model_check(sbm_data, activation, hidden)
    assert ("reconstructed" in c1) == (activation == "relu" and hidden > 8)
    assert checked > 0 and rel <= GRAD_TOL
    # A 0.1% error in one parameter group of either layer is flagged.
    for corrupt in (("l1", "W"), ("l2", "theta")):
        (rel, _, _), _ = _node_model_check(sbm_data, activation, hidden, corrupt)
        assert rel > GRAD_TOL, corrupt


def _operator_applications(monkeypatch, data, cfg):
    """(kind, width, rows) of every decompose/reconstruct one training call
    makes; rows is "train" for an operator restricted to the training
    nodes, "all" for the full one."""
    calls = []
    train_rows = np.flatnonzero(data.train_mask)

    def rows(op):
        if op.rows is None:
            return "all"
        return "train" if np.array_equal(op.rows, train_rows) else "other"

    for module in (experiments, nn):
        real_dec, real_rec = module.decompose, module.reconstruct

        def dec(op, X, real=real_dec):
            calls.append(("decompose", X.shape[1], rows(op)))
            return real(op, X)

        def rec(op, c, real=real_rec):
            calls.append(("reconstruct", c.shape[-1], rows(op)))
            return real(op, c)

        monkeypatch.setattr(module, "decompose", dec)
        monkeypatch.setattr(module, "reconstruct", rec)
    train_node_classifier(data, cfg)
    monkeypatch.undo()
    return calls


# hidden 5 is narrower than the 8 input features and hidden 11 is wider;
# hidden also differs from the class count, so the widths tell the layers
# apart.
@pytest.mark.parametrize(
    "activation, hidden",
    [
        pytest.param("relu", 5, id="relu"),
        pytest.param("shrinkage", 5, id="shrinkage"),
        pytest.param("relu", 11, id="relu-hidden11"),
        pytest.param("shrinkage", 11, id="shrinkage-hidden11"),
    ],
)
def test_node_epoch_applies_operator_eight_times(
    monkeypatch, sbm_data, activation, hidden
):
    d_in, classes = sbm_data.features.shape[1], sbm_data.num_classes
    cfg = ExperimentConfig(activation=activation, hidden=hidden, epochs=3, seeds=(0,))
    short = _operator_applications(monkeypatch, sbm_data, cfg)
    long = _operator_applications(
        monkeypatch, sbm_data, dataclasses.replace(cfg, epochs=4)
    )
    # The two calls share their set-up and differ by one steady-state epoch:
    # layer 2 transforms both ways in each of the three passes, layer 1
    # reconstructs in the evaluation pass and decomposes its gradient, at
    # the input width when a ReLU layer 1 widens, else at hidden width.
    # Only the training pass's layer-2 reconstruct and the decompose of its
    # loss gradient run on the training rows alone.
    layer1 = d_in if activation == "relu" and hidden > d_in else hidden
    per_epoch = Counter(long)
    per_epoch.subtract(Counter(short))
    assert +per_epoch == Counter({
        ("decompose", classes, "all"): 2, ("reconstruct", classes, "all"): 2,
        ("decompose", classes, "train"): 1, ("reconstruct", classes, "train"): 1,
        ("decompose", layer1, "all"): 1, ("reconstruct", layer1, "all"): 1,
    })
    assert sum(per_epoch.values()) == 8


# Small seeded runs, recorded before node and graph training shared one
# loop; the Chebyshev ones before the training pass's layer 2 ran on the
# training rows alone. Accuracies are count ratios (42 test and 12
# validation nodes, 4 test and 4 validation graphs), so a change of RNG
# draw order or of an epoch's steps shows as a changed count, not as
# round-off. Per activation, in exact mode unless the key names another:
# test counts per seed, compression ratio, validation counts per epoch.
PINNED_NODE_RUNS = {
    "relu": ((11, 15), None, ((2, 2, 2, 2, 2, 2), (6, 6, 6, 6, 6, 5))),
    "shrinkage": ((11, 7), 0.7722222222222221, ((1, 1, 1, 1, 0, 0), (5, 6, 6, 5, 5, 5))),
    "relu-chebyshev": ((11, 15), None, ((2, 2, 2, 2, 2, 2), (6, 6, 6, 6, 6, 5))),
    "shrinkage-chebyshev": (
        (11, 7), 0.7722222222222221, ((1, 1, 1, 1, 0, 0), (5, 6, 6, 5, 5, 5))
    ),
}
# Per pool mode: test counts per seed, validation counts per epoch until
# early stopping (patience 3) or the last of 8 epochs.
PINNED_GRAPH_RUNS = {
    "sum": ((1, 2), ((1, 3, 3, 3, 3), (4, 4, 4, 4))),
    "spectrum": ((4, 2), ((4, 3, 3, 3), (4, 4, 4, 0))),
    "mean": ((4, 2), ((1, 3, 3, 3, 4, 4, 4, 3), (0, 0, 0, 0))),
}


def _val_counts(sink, size):
    return tuple(
        tuple(round(r["accuracy"] * size) for r in sink
              if r["split"] == "val" and r["seed"] == seed)
        for seed in (0, 1)
    )


def _pinned_node_data():
    return generate_sbm(
        [20, 20, 20], 0.3, 0.05, GaussianFeatures(6, noise_std=1.0), seed=3
    )


@pytest.mark.parametrize("run", sorted(PINNED_NODE_RUNS))
def test_node_training_reproduces_pinned_outputs(run):
    test_counts, compression, val_counts = PINNED_NODE_RUNS[run]
    activation, _, mode = run.partition("-")
    data = _pinned_node_data()
    assert (data.val_mask.sum(), data.test_mask.sum()) == (12, 42)
    cfg = ExperimentConfig(activation=activation, mode=mode or "exact", epochs=6,
                           seeds=(0, 1), hidden=8)
    sink: list = []
    rec = train_node_classifier(data, cfg, metrics_sink=sink)
    assert rec.per_seed == tuple(k / 42 for k in test_counts)
    assert rec.extra.get("compression_ratio") == compression
    assert _val_counts(sink, 12) == val_counts


class _FullOutputNodeTask(experiments._NodeTask):
    """The node task whose training pass reconstructs layer 2 on every node
    and masks the loss, as it did before the training-row operator."""

    def step(self, params, rng):
        hd, cd = dropout_forward(self.h1, self.config.dropout, rng)
        logits, c2 = ufg_conv_forward(params["l2"], self.op, hd, self.acts[1])
        loss, dlogits = softmax_cross_entropy(logits, self.labels, self.masks[0])
        g2, dh = ufg_conv_backward(c2, dlogits)
        g1, _ = ufg_conv_backward(self.c1, dropout_backward(cd, dh))
        return loss, {"l1": g1, "l2": g2}


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
@pytest.mark.parametrize("activation", ["relu", "shrinkage"])
def test_training_row_step_trains_as_the_full_output_step(activation, mode):
    # Bitwise in Chebyshev mode; in exact mode the restricted stack's GEMMs
    # sum in another order.
    data = _pinned_node_data()
    cfg = ExperimentConfig(activation=activation, mode=mode, epochs=6, seeds=(0,),
                           hidden=8)
    op = build_node_operator(data, cfg)
    runs = []
    for task_type in (experiments._NodeTask, _FullOutputNodeTask):
        sink: list = []
        task = task_type(data, op, cfg)
        test_acc, params = experiments._fit(task, cfg, 0, np.inf, sink)
        runs.append((test_acc, params, [r["loss"] for r in sink]))
    (acc, params, losses), (full_acc, full_params, full_losses) = runs
    assert acc == full_acc
    if mode == "chebyshev":
        assert losses == full_losses
        for layer, values in params.items():
            for name, value in values.items():
                np.testing.assert_array_equal(value, full_params[layer][name], strict=True)
    else:
        np.testing.assert_allclose(losses, full_losses, rtol=ROWS_TOL, atol=0)


@pytest.mark.parametrize("pool_mode", sorted(PINNED_GRAPH_RUNS))
def test_graph_training_reproduces_pinned_outputs(pool_mode):
    test_counts, val_counts = PINNED_GRAPH_RUNS[pool_mode]
    samples = cycles_and_stars(20, (5, 8), seed=0)
    cfg = ExperimentConfig(pool_mode=pool_mode, epochs=8, patience=3, seeds=(0, 1), hidden=8)
    sink: list = []
    rec = train_graph_classifier(samples, cfg, metrics_sink=sink)
    assert rec.per_seed == tuple(k / 4 for k in test_counts)
    assert _val_counts(sink, 4) == val_counts


# ------------------------------------------------------ graph classification

def test_graph_classifier_learns_cycles_vs_stars():
    samples = cycles_and_stars(10, (5, 8), seed=0)
    cfg = ExperimentConfig(
        task="graph", epochs=5, patience=3, seeds=(0,), hidden=8
    )
    rec = train_graph_classifier(samples, cfg)
    assert rec.mean >= 0.9
    assert rec.extra["pool_mode"] == "spectrum"


def test_graph_classifier_single_class_is_perfect():
    samples = cycles_and_stars(12, (5, 7), seed=1)
    only_cycles = [s for s in samples if s.label == 0]
    cfg = ExperimentConfig(
        task="graph", epochs=2, patience=2, seeds=(0,), hidden=4,
        pool_mode="sum",
    )
    rec = train_graph_classifier(only_cycles, cfg)
    assert rec.mean == 1.0


def test_graph_classifier_mean_pool_baseline():
    samples = cycles_and_stars(10, (5, 8), seed=0)
    cfg = ExperimentConfig(
        task="graph", epochs=3, patience=2, seeds=(0,), hidden=8,
        pool_mode="mean",
    )
    rec = train_graph_classifier(samples, cfg)
    assert 0.0 <= rec.mean <= 1.0


def test_graph_classifier_needs_enough_samples_for_split():
    samples = cycles_and_stars(3, (5, 6), seed=0)[:5]
    cfg = ExperimentConfig(task="graph", epochs=1, seeds=(0,), hidden=4)
    with pytest.raises(ValueError, match="split"):
        train_graph_classifier(samples, cfg)


def test_graph_classifier_builds_operators_in_config_mode(monkeypatch):
    built = []
    real = experiments.framelet_operator

    def recording(graph, settings):
        built.append((settings.mode, settings.degree))
        return real(graph, settings)

    monkeypatch.setattr(experiments, "framelet_operator", recording)
    samples = cycles_and_stars(5, (5, 7), seed=0)
    cfg = ExperimentConfig(
        task="graph", mode="chebyshev", degree=3, epochs=2, seeds=(0,), hidden=4
    )
    train_graph_classifier(samples, cfg)
    assert built == [("chebyshev", 3)] * len(samples)
    built.clear()
    train_graph_classifier(samples, dataclasses.replace(cfg, pool_mode="mean"))
    assert built == []


def test_sum_then_spectrum_builds_each_gcn_adjacency_once(monkeypatch):
    # One normalization per training call, on the union of its graphs.
    built = []
    real = graphs.gcn_norm_adjacency

    def counting(graph):
        built.append(graph.num_nodes)
        return real(graph)

    monkeypatch.setattr(graphs, "gcn_norm_adjacency", counting)
    samples = cycles_and_stars(5, (5, 7), seed=0)
    cfg = ExperimentConfig(
        task="graph", epochs=2, seeds=(0,), hidden=4, pool_mode="sum"
    )
    train_graph_classifier(samples, cfg)
    train_graph_classifier(samples, dataclasses.replace(cfg, pool_mode="spectrum"))
    assert built == [sum(s.graph.num_nodes for s in samples)] * 2


def _mixed_union(pool_mode):
    """The graph task on eight graphs of different sizes, both labels,
    generic features: the fewest graphs an 80/10/10 split takes."""
    rng = np.random.default_rng(5)
    graphs = [cycle_graph(5), star_graph(7), path_graph(9), cycle_graph(6),
              star_graph(4), path_graph(3), cycle_graph(8), star_graph(6)]
    samples = [
        GraphSample(graph=g, features=rng.normal(size=(g.num_nodes, 3)), label=y)
        for g, y in zip(graphs, (0, 1, 1, 0, 1, 0, 0, 1))
    ]
    cfg = ExperimentConfig(task="graph", pool_mode=pool_mode, hidden=4)
    task = _GraphTask(samples, cfg)
    pool_dim = 4 * (task.ops[0].num_blocks if task.ops else 1)
    params = {
        "g1.W": rng.normal(size=(3, 4)),
        "g2.W": rng.normal(size=(4, 4)),
        **mlp_init(pool_dim, 5, 2, rng),
    }
    # The third and sixth graphs are outside the loss, as validation graphs are.
    mask = np.array([True, True, False, True, True, False, True, True])
    return samples, cfg, task, params, mask


def _union_model_check(pool_mode, corrupt=None):
    """``gradient_check`` of the graph task's model on ``_mixed_union``;
    ``corrupt`` names a gradient to scale by 1.001 first."""
    _, _, task, params, mask = _mixed_union(pool_mode)

    def loss_fn(p):
        logits, (c1, c2, _, cm) = task.forward(p)
        loss, _ = softmax_cross_entropy(logits, task.labels, mask)
        return loss, activation_signature(c1, c2, cm)

    logits, caches = task.forward(params)
    _, dlogits = softmax_cross_entropy(logits, task.labels, mask)
    grads = task.backward(caches, dlogits)
    if corrupt is not None:
        grads[corrupt] = grads[corrupt] * 1.001
    return gradient_check(loss_fn, params, grads, max_coords=80, seed=2)


@pytest.mark.parametrize("pool_mode", POOL_MODES)
def test_union_model_gradients(pool_mode):
    rel, checked, _ = _union_model_check(pool_mode)
    assert checked > 0 and rel <= GRAD_TOL
    # A 0.1% error in the first layer's weights is flagged.
    assert _union_model_check(pool_mode, corrupt="g1.W")[0] > GRAD_TOL


def _single_graph_step(params, sample, cfg):
    """Loss and gradients of one graph through the single-graph layers."""
    adj = gcn_norm_adjacency(sample.graph)
    y1, c1 = gcn_conv_forward(params["g1.W"], adj, sample.features)
    y2, c2 = gcn_conv_forward(params["g2.W"], adj, y1)
    if cfg.pool_mode == "mean":
        pooled = y2.mean(axis=0)
    else:
        op = framelet_operator(sample.graph, cfg.transform)
        pooled, cp = ufg_pool_forward(op, y2, cfg.pool_mode)
    logits, cm = mlp_forward(params, pooled)
    loss, dlogits = softmax_cross_entropy(logits, np.array([sample.label]))
    grads, dpooled = mlp_backward(cm, dlogits)
    if cfg.pool_mode == "mean":
        dy2 = np.tile(dpooled / y2.shape[0], (y2.shape[0], 1))
    else:
        dy2 = ufg_pool_backward(cp, dpooled[0])
    dy1, grads["g2.W"] = gcn_conv_backward(c2, dy2)
    _, grads["g1.W"] = gcn_conv_backward(c1, dy1)
    return loss, grads


@pytest.mark.parametrize("pool_mode", POOL_MODES)
def test_union_gradient_is_mean_of_per_graph_gradients(pool_mode):
    samples, cfg, task, params, mask = _mixed_union(pool_mode)
    logits, caches = task.forward(params)
    loss, dlogits = softmax_cross_entropy(logits, task.labels, mask)
    grads = task.backward(caches, dlogits)
    steps = [
        _single_graph_step(params, s, cfg) for s, keep in zip(samples, mask) if keep
    ]
    assert loss == pytest.approx(np.mean([l for l, _ in steps]), rel=BATCH_TOL)
    for key, g in grads.items():
        ref = np.mean([step[key] for _, step in steps], axis=0)
        assert np.max(np.abs(g - ref)) <= BATCH_TOL * np.max(np.abs(ref)), key


def test_majority_class_accuracy():
    samples = cycles_and_stars(3, (5, 6), seed=0)
    assert majority_class_accuracy(samples) == 0.5
    skewed = [s for s in samples if s.label == 0] + samples[-1:]
    expected = max(
        sum(s.label == 0 for s in skewed), sum(s.label == 1 for s in skewed)
    ) / len(skewed)
    assert majority_class_accuracy(skewed) == expected


# ----------------------------------------------------------------- denoise

@pytest.fixture(scope="module")
def path_signal():
    graph = path_graph(50)
    spectrum = eigendecompose(normalized_laplacian(graph))
    truth = spectrum.vectors[:, 1] * np.sqrt(50)  # unit-RMS smooth mode
    rng = np.random.default_rng(3)
    noisy = truth + 0.5 * rng.normal(size=truth.shape)
    return framelet_operator(graph), truth, noisy


def test_denoise_sigma_zero_is_lossless(path_signal):
    op, _, noisy = path_signal
    out, report = denoise_signal(op, noisy, sigma=0.0)
    assert out.shape == noisy.shape
    assert np.max(np.abs(out - noisy)) <= ROUNDTRIP_TOL
    assert report["sigma"] == 0.0


def test_denoise_improves_mse_on_smooth_signal(path_signal):
    op, truth, noisy = path_signal
    _, report = denoise_signal(op, noisy, sigma=1.0, truth=truth)
    assert report["mse_denoised"] < report["mse_noisy"]


def test_denoise_preserves_two_dimensional_signals(path_signal):
    op, _, noisy = path_signal
    stacked = np.column_stack([noisy, 2.0 * noisy])
    out, _ = denoise_signal(op, stacked, sigma=0.0)
    assert out.shape == stacked.shape


# ------------------------------------------------------------------- bench

def test_bench_transform_rows():
    rows = bench_transform([30, 60], repetitions=2, seed=0)
    assert [r["n"] for r in rows] == [30, 60]
    for row in rows:
        assert row["status"] == "ok"
        assert row["build_mean_s"] >= 0.0
        assert row["transform_median_s"] >= 0.0
        assert row["blocks"] == 2  # levels=1 default: 1 high + low


def test_bench_transform_times_every_build_from_an_empty_cache(monkeypatch):
    calls, builds = [], []
    real, real_build = graphs.lambda_max, transform.build_operators

    def counting(lap, method="exact"):
        calls.append(method)
        return real(lap, method)

    def counting_build(system, lap, spectrum=None):
        builds.append(lap.num_rows)
        return real_build(system, lap, spectrum)

    monkeypatch.setattr(graphs, "lambda_max", counting)
    monkeypatch.setattr(transform, "build_operators", counting_build)
    bench_transform([30, 60], repetitions=3, seed=0)
    # Each repetition builds: a graph's kept operator would time nothing.
    assert calls == ["lanczos"] * 6
    assert builds == [30] * 3 + [60] * 3


def test_bench_transform_rejects_descending_sizes():
    with pytest.raises(ValueError, match="ascending"):
        bench_transform([60, 30], repetitions=1)


@pytest.mark.parametrize("repetitions", [0, -1])
def test_bench_transform_rejects_fewer_than_one_repetition(monkeypatch, repetitions):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(experiments, "random_er_graph", no_graph)
    with pytest.raises(ValueError, match="repetitions must be at least 1"):
        bench_transform([30], repetitions=repetitions)


@pytest.mark.parametrize("seed", [-1, 0.5])
def test_bench_transform_rejects_a_seed_before_building_a_graph(monkeypatch, seed):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(experiments, "random_er_graph", no_graph)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        bench_transform([30], repetitions=1, seed=seed)


@pytest.mark.parametrize("settings, message", [
    ({"levels": 0}, "levels must be >= 1"),
    ({"degree": -1}, "degree must be nonnegative"),
    ({"dilation": 1.0}, "dilation must be finite and exceed 1"),
    ({"dilation": 1e300, "levels": 3}, "overflows the top filter argument"),
], ids=["levels", "degree", "dilation", "overflow"])
def test_bench_transform_rejects_transform_settings_before_building_a_graph(
    monkeypatch, settings, message
):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(experiments, "random_er_graph", no_graph)
    with pytest.raises(ValueError, match=message):
        bench_transform([30], repetitions=1, **settings)


def test_bench_transform_deterministic_mode_zeroes_times(monkeypatch):
    monkeypatch.setenv("UFG_DETERMINISTIC", "1")
    rows = bench_transform([30], repetitions=1, seed=0)
    assert rows[0]["build_mean_s"] == 0.0
    assert rows[0]["transform_mean_s"] == 0.0
