"""Layer forward/backward pairs: identities, oracles, gradient fidelity."""

import itertools

import numpy as np
import pytest

from conftest import path_graph
from ufg.graphs import build_graph, gcn_norm_adjacency
from ufg.nn import (
    AdamState,
    accuracy,
    activation_signature,
    adam_step,
    dropout_backward,
    dropout_forward,
    gcn_conv_backward,
    gcn_conv_forward,
    gradient_check,
    init_params,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax_cross_entropy,
    ufg_conv_backward,
    ufg_conv_forward,
    ufg_pool_backward,
    ufg_pool_forward,
    _stencil_crossed_kink,
)
from ufg.shrinkage import ThresholdConfig, shrink_stack
from ufg import nn
from ufg.transform import TransformSettings, decompose, framelet_operator, reconstruct

GRAD_TOL = 1e-5
IDENTITY_TOL = 1e-10
# The input layer computes decompose(X) W where the conv computes
# decompose(X W): the same linear map, summed in another order.
REASSOC_TOL = 1e-12


def _identity_params(op, d):
    return {"W": np.eye(d), "theta": np.ones(op.num_rows), "bias": np.zeros(d)}


def test_init_params_ranges(rng):
    p = init_params(4, 3, 10, rng)
    assert list(p) == ["W", "theta", "bias"]
    assert p["W"].shape == (4, 3)
    assert p["theta"].shape == (10,)
    assert np.all((p["theta"] >= 0.9) & (p["theta"] <= 1.1))
    np.testing.assert_array_equal(p["bias"], 0.0)
    with pytest.raises(ValueError, match="positive"):
        init_params(0, 3, 10, rng)


def test_xavier_draws_keep_their_order():
    # Every parameter is drawn in the order and form it always was, so
    # seeded runs reproduce bitwise.
    rng = np.random.default_rng(7)
    lim = np.sqrt(6.0 / (4 + 3))
    W = rng.uniform(-lim, lim, size=(4, 3))
    theta = rng.uniform(0.9, 1.1, size=10)
    p = init_params(4, 3, 10, 7)
    assert p["W"].tobytes() == W.tobytes() and p["theta"].tobytes() == theta.tobytes()
    rng = np.random.default_rng(8)
    W1 = rng.uniform(-np.sqrt(6.0 / 9), np.sqrt(6.0 / 9), size=(5, 4))
    W2 = rng.uniform(-np.sqrt(6.0 / 6), np.sqrt(6.0 / 6), size=(4, 2))
    m = mlp_init(5, 4, 2, 8)
    assert m["W1"].tobytes() == W1.tobytes() and m["W2"].tobytes() == W2.tobytes()


def test_layer_activation_validation(small_operator, monkeypatch):
    # Refused before any operator product: the layer's products fail here.
    def no_product(*args):
        raise AssertionError("an operator product ran")

    monkeypatch.setattr("ufg.nn.decompose", no_product)
    monkeypatch.setattr("ufg.nn.reconstruct", no_product)
    params = init_params(3, 2, small_operator.num_rows, 0)
    X = np.zeros((small_operator.num_nodes, 3))
    # The old kind strings "shrinkage" and "none" are refused too.
    for act in ("tanh", "shrinkage", "none", 1.0):
        with pytest.raises(ValueError, match="act must be 'relu', None or a ThresholdConfig"):
            ufg_conv_forward(params, small_operator, X, act)


def test_linear_identity_layer(small_operator, rng):
    # Unit theta, identity W, zero bias: the layer is the tight-frame identity.
    n = small_operator.num_nodes
    X = rng.normal(size=(n, 3))
    y, _ = ufg_conv_forward(
        _identity_params(small_operator, 3), small_operator, X, None
    )
    assert np.max(np.abs(y - X)) <= IDENTITY_TOL


def test_sigma_zero_shrinkage_equals_linear(small_operator, rng):
    n = small_operator.num_nodes
    X = rng.normal(size=(n, 3))
    params = init_params(3, 2, small_operator.num_rows, rng)
    y_lin, _ = ufg_conv_forward(params, small_operator, X, None)
    y_shr, _ = ufg_conv_forward(params, small_operator, X, ThresholdConfig(0.0))
    np.testing.assert_array_equal(y_lin, y_shr)


def test_shrinkage_cache_holds_its_stacks(small_operator, rng):
    X = rng.normal(size=(small_operator.num_nodes, 3))
    params = init_params(3, 2, small_operator.num_rows, rng)
    cfg = ThresholdConfig(1.0, "energy_scaled")
    _, cache = ufg_conv_forward(params, small_operator, X, cfg)
    filtered, shrunk = cache["filtered"], cache["shrunk"]
    rows = small_operator.num_rows
    np.testing.assert_array_equal(
        filtered.reshape(rows, -1), params["theta"][:, None] * cache["coeff"].reshape(rows, -1)
    )
    expected = shrink_stack(filtered, cfg, thresholds=cache["thresholds"])
    np.testing.assert_array_equal(shrunk, expected)
    np.testing.assert_array_equal(cache["active_mask"], shrunk != 0.0)


def test_conv_shape_errors(small_operator, rng):
    params = init_params(3, 2, small_operator.num_rows, rng)
    with pytest.raises(ValueError, match="X shape"):
        ufg_conv_forward(params, small_operator, np.zeros((5, 4)), "relu")
    short = {"W": np.eye(3), "theta": np.ones(3), "bias": np.zeros(3)}
    with pytest.raises(ValueError, match="theta length"):
        ufg_conv_forward(
            short,
            small_operator,
            np.zeros((small_operator.num_nodes, 3)),
            "relu",
        )


def _conv_fd(small_operator, act, seed, frozen=None, out_op=None, d_in=3, d_out=2,
             wrt_input=False, max_coords=40, corrupt=None):
    """``gradient_check`` of the layer's gradients in W, theta and bias, and
    with ``wrt_input`` in X before them; ``corrupt(grads)`` edits the
    analytic gradients first."""
    rng = np.random.default_rng(seed)
    n = small_operator.num_nodes
    X = rng.normal(size=(n, d_in))
    params = init_params(d_in, d_out, small_operator.num_rows, rng)
    out_rows = n if out_op is None else out_op.num_signal_rows
    target = rng.normal(size=(out_rows, d_out))
    y, cache = ufg_conv_forward(params, small_operator, X, act, out_op=out_op)
    thresholds = cache.get("thresholds") if frozen is None else frozen

    def loss_fn(p):
        out, c = ufg_conv_forward(
            p, small_operator, p.get("X", X), act, frozen_thresholds=thresholds,
            out_op=out_op,
        )
        return 0.5 * float(np.sum((out - target) ** 2)), activation_signature(c)

    grads, dX = ufg_conv_backward(cache, y - target)
    if wrt_input:
        params, grads = {"X": X, **params}, {"X": dX, **grads}
    if corrupt is not None:
        corrupt(grads)
    return gradient_check(loss_fn, params, grads, max_coords=max_coords, seed=seed)


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


ACTIVATIONS = ("relu", "shrinkage", "none")


def _operator(small_graph, small_operator, mode):
    if mode == "exact":
        return small_operator
    return framelet_operator(small_graph, TransformSettings(2.0, 2, 16, "chebyshev"))


def _activation(kind):
    return {
        "relu": "relu",
        "shrinkage": ThresholdConfig(1.0, "energy_scaled"),
        "none": None,
    }[kind]


# d_in < d_out: ReLU and none reconstruct theta * decompose(X) first.
INPUT_LAYER_CASES = [
    pytest.param(kind, 4, 3, "exact", id=kind) for kind in ACTIVATIONS
] + [
    pytest.param(kind, d_in, d_out, mode, id=f"{kind}-{d_in}x{d_out}-{mode}")
    for kind in ACTIVATIONS
    for d_in, d_out, mode in ((4, 3, "chebyshev"), (3, 6, "exact"), (3, 6, "chebyshev"))
]


@pytest.mark.parametrize("kind, d_in, d_out, mode", INPUT_LAYER_CASES)
def test_input_layer_matches_conv_on_decomposed_input(
    small_graph, small_operator, kind, d_in, d_out, mode
):
    operator = _operator(small_graph, small_operator, mode)
    act = _activation(kind)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(operator.num_nodes, d_in))
    params = init_params(d_in, d_out, operator.num_rows, rng)
    params["bias"] = rng.normal(size=d_out)
    grad_out = rng.normal(size=(operator.num_nodes, d_out))
    # Zero columns of X and rows of W widen the input to d_out: the same
    # layer, which then projects first in every case.
    pad = max(d_out - d_in, 0)
    wide = {**params, "W": np.vstack([params["W"], np.zeros((pad, d_out))])}
    y, cache = ufg_conv_forward(wide, operator, np.pad(X, ((0, 0), (0, pad))), act)
    assert "reconstructed" not in cache
    coeff_x = decompose(operator, X)
    y_in, cache_in = ufg_conv_forward(params, operator, coeff_x, act)
    assert _rel_err(y_in, y) <= REASSOC_TOL
    if kind != "shrinkage" and d_in < d_out:
        # No B*N x d_out coefficient stack is formed or kept.
        assert cache_in["coeff"] is coeff_x
        assert cache_in["reconstructed"].shape == (operator.num_nodes, d_in)
    else:
        assert "reconstructed" not in cache_in
        assert _rel_err(cache_in["coeff"], cache["coeff"]) <= REASSOC_TOL
    for key in ("relu_mask", "active_mask"):
        assert (key in cache_in) == (key in cache)
        if key in cache:
            np.testing.assert_array_equal(cache_in[key], cache[key])
    if kind == "shrinkage":
        assert cache_in["thresholds"].shape == (operator.num_blocks,)
        assert cache_in["thresholds"] == pytest.approx(
            cache["thresholds"], rel=REASSOC_TOL
        )
    grads, _ = ufg_conv_backward(cache, grad_out)
    grads_in, dX_in = ufg_conv_backward(cache_in, grad_out)
    assert dX_in is None
    assert _rel_err(grads_in["W"], grads["W"][:d_in]) <= REASSOC_TOL
    assert _rel_err(grads_in["theta"], grads["theta"]) <= REASSOC_TOL
    assert _rel_err(grads_in["bias"], grads["bias"]) <= REASSOC_TOL


def test_input_layer_shape_errors(small_graph, small_operator, rng):
    params = init_params(3, 2, small_operator.num_rows, rng)
    # A graph with one more node, or this graph at another level count: the
    # stack does not match the operator either way.
    for other in (framelet_operator(path_graph(small_operator.num_nodes + 1)),
                  framelet_operator(small_graph, TransformSettings(levels=3))):
        coeff = decompose(other, np.zeros((other.num_nodes, 3)))
        with pytest.raises(ValueError, match="coefficient input does not match"):
            ufg_conv_forward(params, small_operator, coeff, "relu")
    with pytest.raises(ValueError, match="X shape"):
        narrow = decompose(small_operator, np.zeros((small_operator.num_nodes, 2)))
        ufg_conv_forward(params, small_operator, narrow, "relu")
    # Both orders refuse a theta of the wrong length: (3, 6) reconstructs
    # first under ReLU and none, (4, 3) projects first.
    for (d_in, d_out), act in itertools.product(
        [(4, 3), (3, 6)], ["relu", None]
    ):
        long = init_params(d_in, d_out, small_operator.num_rows + 1, rng)
        coeff_x = np.zeros((small_operator.num_blocks, small_operator.num_nodes, d_in))
        with pytest.raises(ValueError, match="theta length"):
            ufg_conv_forward(long, small_operator, coeff_x, act)


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_conv_tells_coefficients_by_three_axes_and_refuses_a_mismatched_array(
    small_graph, small_operator, mode
):
    # A 3-d input is the (B, N, d_in) coefficients: the flat (B N) x d_in
    # rows are a node signal of the wrong row count, and one block or node
    # too many or too few is refused. The layer on the coefficients matches
    # the layer on the signal, and its projection is one flat BLAS product.
    op = _operator(small_graph, small_operator, mode)
    b, n = op.num_blocks, op.num_nodes
    rng = np.random.default_rng(12)
    X = rng.normal(size=(n, 4))
    params = init_params(4, 3, op.num_rows, rng)
    c = decompose(op, X)
    y, cache = ufg_conv_forward(params, op, c, None)
    assert _rel_err(y, ufg_conv_forward(params, op, X, None)[0]) <= REASSOC_TOL
    np.testing.assert_array_equal(
        cache["coeff"], (c.reshape(b * n, 4) @ params["W"]).reshape(b, n, 3))
    for bad in (c.reshape(b * n, 4), c[:-1], np.concatenate([c, c[:1]]), c[:, :-1],
                np.zeros((b, n + 1, 4))):
        with pytest.raises(ValueError):
            ufg_conv_forward(params, op, bad, None)
    for bad in (c[:-1], np.concatenate([c, c[:1]]), c[:, :-1], np.zeros((b, n + 1, 4))):
        with pytest.raises(ValueError, match="coefficient input does not match"):
            ufg_conv_forward(params, op, bad, "relu")


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_pool_sum_backward_reconstructs_its_broadcast_view(
    monkeypatch, small_graph, small_operator, mode
):
    # In sum mode every node of a block has the same gradient: the backward
    # pass hands reconstruct that read-only broadcast view, which gives
    # bitwise what the array it views gives.
    op = _operator(small_graph, small_operator, mode)
    X = np.random.default_rng(13).normal(size=(op.num_nodes, 3))
    pooled, cache = ufg_pool_forward(op, X, "sum")
    seen = []
    monkeypatch.setattr(nn, "reconstruct", lambda o, c: seen.append(c) or reconstruct(o, c))
    grad = np.random.default_rng(14).normal(size=pooled.shape)
    dX = ufg_pool_backward(cache, grad)
    (view,) = seen
    assert view.shape == (op.num_blocks, op.num_nodes, 3) and view.strides[1] == 0
    assert not view.flags.writeable
    dense = np.repeat(grad.reshape(op.num_blocks, 1, 3), op.num_nodes, axis=1)
    np.testing.assert_array_equal(dX, reconstruct(op, dense), strict=True)


def test_conv_gradients_relu(small_operator):
    rel, checked, _ = _conv_fd(small_operator, "relu", seed=0)
    assert checked > 0 and rel <= GRAD_TOL


def test_conv_gradients_shrinkage_frozen_threshold(small_operator):
    act = ThresholdConfig(1.0, "energy_scaled")
    rel, checked, _ = _conv_fd(small_operator, act, seed=1)
    assert checked > 0 and rel <= GRAD_TOL


# Nodes a restricted layer outputs: unsorted draws would be refused.
OUT_ROWS = np.array([0, 2, 3, 7, 11, 12, 19, 23])


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_conv_gradients_on_restricted_output_rows(
    small_graph, small_operator, kind, mode
):
    op = _operator(small_graph, small_operator, mode)
    # Shrinkage thresholds stay at the nominal point's (stop-gradient).
    out_op = op.restrict(OUT_ROWS)
    rel, checked, _ = _conv_fd(op, _activation(kind), seed=5, out_op=out_op)
    assert checked > 0 and rel <= GRAD_TOL


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
@pytest.mark.parametrize("kind", ["relu", "none"])
def test_conv_gradients_reconstructing_first_on_a_node_input(
    small_graph, small_operator, kind, mode, restricted
):
    # d_in < d_out: every gradient, dX included, in the reconstruct-first order.
    op = _operator(small_graph, small_operator, mode)
    act = _activation(kind)
    out_op = op.restrict(OUT_ROWS) if restricted else None
    X = np.zeros((op.num_nodes, 2))
    _, cache = ufg_conv_forward(init_params(2, 4, op.num_rows, 0), op, X, act,
                                out_op=out_op)
    rows = OUT_ROWS.size if restricted else op.num_nodes
    assert cache["reconstructed"].shape == (rows, 2)
    rel, checked, excluded = _conv_fd(op, act, seed=7, out_op=out_op, d_in=2, d_out=4,
                                      wrt_input=True, max_coords=200)
    # Every coordinate of X, W, theta and bias: 48 + 8 + 72 + 4.
    assert checked + len(excluded) == 2 * op.num_nodes + 8 + op.num_rows + 4
    assert checked > 0 and rel <= GRAD_TOL


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_restricted_output_layer_is_the_full_layer_under_a_masked_loss(
    small_graph, small_operator, kind, mode
):
    # Outputs on the rows and every gradient, for an upstream gradient that
    # is zero off the rows: bitwise in Chebyshev mode, whose restricted
    # products are the full ones padded and gathered.
    op = _operator(small_graph, small_operator, mode)
    act = _activation(kind)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(op.num_nodes, 3))
    params = init_params(3, 2, op.num_rows, rng)
    params["bias"] = rng.normal(size=2)
    grad_rows = rng.normal(size=(OUT_ROWS.size, 2))
    grad_full = np.zeros((op.num_nodes, 2))
    grad_full[OUT_ROWS] = grad_rows
    y, cache = ufg_conv_forward(params, op, X, act)
    y_rows, cache_rows = ufg_conv_forward(params, op, X, act,
                                          out_op=op.restrict(OUT_ROWS))
    grads, dX = ufg_conv_backward(cache, grad_full)
    full = (y[OUT_ROWS], dX, *grads.values())
    grads, dX = ufg_conv_backward(cache_rows, grad_rows)
    rows = (y_rows, dX, *grads.values())
    for actual, expected in zip(rows, full):
        if mode == "chebyshev":
            np.testing.assert_array_equal(actual, expected, strict=True)
        else:
            assert _rel_err(actual, expected) <= REASSOC_TOL


def test_conv_refuses_an_output_operator_of_another_graph(small_graph, small_operator):
    other = framelet_operator(small_graph, TransformSettings(2.0, 2, 16, "chebyshev"))
    params = init_params(3, 2, small_operator.num_rows, 0)
    X = np.zeros((small_operator.num_nodes, 3))
    with pytest.raises(ValueError, match="out_op"):
        ufg_conv_forward(params, small_operator, X, None,
                         out_op=other.restrict(OUT_ROWS))


def test_conv_gradient_negative_control(small_operator):
    # A corrupted gradient must be flagged; guards against vacuous checks.
    def corrupt(grads):
        grads["W"] = grads["W"] * 1.5

    rel, checked, _ = _conv_fd(small_operator, "relu", seed=2,
                               corrupt=corrupt)
    assert checked > 0 and rel > 1e-2


@pytest.mark.parametrize("name", ["W", "theta", "bias"])
def test_conv_gradient_check_flags_a_tenth_of_a_percent_in_one_group(
    small_operator, name
):
    def corrupt(grads):
        grads[name] = grads[name] * 1.001

    rel, checked, _ = _conv_fd(small_operator, "relu", seed=0,
                               max_coords=200, corrupt=corrupt)
    assert checked > 0 and rel > GRAD_TOL


def test_gcn_norm_adjacency_oracle():
    # Single edge: A + I is all-ones, degrees 2, normalized entries all 1/2.
    g = build_graph(2, [(0, 1, 1.0)])
    np.testing.assert_allclose(
        gcn_norm_adjacency(g).csr.toarray(), np.full((2, 2), 0.5), atol=1e-12
    )


def test_gcn_gradients(rng):
    g = path_graph(8)
    adj = gcn_norm_adjacency(g)
    X = rng.normal(size=(8, 3))
    W = rng.normal(size=(3, 2))
    target = rng.normal(size=(8, 2))
    y, cache = gcn_conv_forward(W, adj, X)
    _, dW = gcn_conv_backward(cache, y - target)

    def loss_fn(p):
        out, c = gcn_conv_forward(p["W"], adj, X)
        return 0.5 * float(np.sum((out - target) ** 2)), activation_signature(c)

    rel, checked, _ = gradient_check(loss_fn, {"W": W}, {"W": dW}, max_coords=6, seed=0)
    assert checked > 0 and rel <= GRAD_TOL


def test_mlp_gradients(rng):
    params = mlp_init(4, 5, 3, rng)
    X = rng.normal(size=(6, 4))
    labels = rng.integers(0, 3, size=6)

    def loss_fn(p):
        logits, c = mlp_forward(p, X)
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss, activation_signature(c)

    logits, cache = mlp_forward(params, X)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    grads, _ = mlp_backward(cache, dlogits)
    rel, checked, _ = gradient_check(loss_fn, params, grads, max_coords=40, seed=1)
    assert checked > 0 and rel <= GRAD_TOL


def test_pool_spectrum_conserves_energy(small_operator, rng):
    X = rng.normal(size=(small_operator.num_nodes, 3))
    pooled, _ = ufg_pool_forward(small_operator, X, "spectrum")
    assert pooled.shape == (small_operator.num_blocks * 3,)
    assert float(pooled.sum()) == pytest.approx(float(np.sum(X**2)), rel=1e-8)


def test_pool_sum_matches_block_sums(small_operator, rng):
    from ufg.transform import decompose

    X = rng.normal(size=(small_operator.num_nodes, 2))
    pooled, _ = ufg_pool_forward(small_operator, X, "sum")
    c = decompose(small_operator, X)
    manual = np.concatenate([block.sum(axis=0) for block in c])
    np.testing.assert_allclose(pooled, manual, atol=1e-12)
    with pytest.raises(ValueError, match="mode"):
        ufg_pool_forward(small_operator, X, "max")


def test_pool_gradients(small_operator, rng):
    n = small_operator.num_nodes
    X = rng.normal(size=(n, 2))
    for mode in ("sum", "spectrum"):
        pooled, cache = ufg_pool_forward(small_operator, X, mode)
        target = rng.normal(size=pooled.shape)
        dX = ufg_pool_backward(cache, pooled - target)

        def loss_fn(p):
            out, _ = ufg_pool_forward(small_operator, p["X"], mode)
            return 0.5 * float(np.sum((out - target) ** 2)), None

        rel, checked, _ = gradient_check(loss_fn, {"X": X}, {"X": dX}, max_coords=30,
                                         seed=3)
        assert checked > 0 and rel <= GRAD_TOL, mode


def test_softmax_cross_entropy_oracles():
    logits = np.zeros((4, 3))
    labels = np.array([0, 1, 2, 0])
    loss, dlogits = softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(np.log(3.0))
    np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)
    masked_loss, d = softmax_cross_entropy(logits, labels, np.array([1, 0, 0, 0], bool))
    assert masked_loss == pytest.approx(np.log(3.0))
    np.testing.assert_array_equal(d[1:], 0.0)
    with pytest.raises(ValueError, match="no samples"):
        softmax_cross_entropy(logits, labels, np.zeros(4, bool))


def test_accuracy():
    logits = np.array([[2.0, 1.0], [0.0, 1.0], [3.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels) == pytest.approx(2.0 / 3.0)
    assert accuracy(logits, labels, np.array([1, 1, 0], bool)) == 1.0


@pytest.mark.parametrize("loss", [softmax_cross_entropy, accuracy])
@pytest.mark.parametrize(
    "labels, mask, message",
    [
        pytest.param(np.zeros(4, int), None, r"labels .*\(4,\).* 3 rows", id="long-labels"),
        pytest.param(np.zeros(2, int), None, r"labels .*\(2,\).* 3 rows", id="short-labels"),
        pytest.param(np.zeros((3, 1), int), None, r"labels .*\(3, 1\).* 3 rows",
                     id="2d-labels"),
        pytest.param(np.zeros(3, int), np.ones(4, bool), r"mask .*\(4,\).* 3 rows",
                     id="long-mask"),
        pytest.param(np.zeros(3, int), np.ones(2, bool), r"mask .*\(2,\).* 3 rows",
                     id="short-mask"),
    ],
)
def test_loss_and_accuracy_refuse_labels_or_mask_of_another_length(
    loss, labels, mask, message
):
    with pytest.raises(ValueError, match=message):
        loss(np.zeros((3, 2)), labels, mask)


def test_dropout():
    rng_seed = 5
    X = np.ones((50, 20))
    out, cache = dropout_forward(X, 0.0, rng_seed)
    np.testing.assert_array_equal(out, X)
    out, cache = dropout_forward(X, 0.5, rng_seed)
    kept = cache["mask"]
    np.testing.assert_array_equal(out[kept], 2.0)
    np.testing.assert_array_equal(out[~kept], 0.0)
    grad = dropout_backward(cache, np.ones_like(X))
    np.testing.assert_array_equal(grad[kept], 2.0)
    with pytest.raises(ValueError, match="probability"):
        dropout_forward(X, 1.0, rng_seed)


def test_adam_single_step_oracle():
    # One step from zero state: m_hat = g, v_hat = g^2, so the update is
    # -lr * sign(g) up to eps.
    state = AdamState(lr=0.1)
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, -0.25])}
    out = adam_step(state, params, grads)
    np.testing.assert_allclose(out["w"], [0.9, -1.9], atol=1e-6)
    assert state.step == 1


def test_adam_weight_decay_only_on_decay_keys():
    params = {"w": np.array([1.0]), "theta": np.array([1.0])}
    grads = {"w": np.array([0.0]), "theta": np.array([0.0])}
    state = AdamState(lr=0.1)
    out = adam_step(state, params, grads, weight_decay=0.1, decay_keys={"w"})
    assert out["w"][0] < 1.0  # decayed
    assert out["theta"][0] == pytest.approx(1.0)  # untouched


def test_adam_shape_mismatch():
    state = AdamState(lr=0.1)
    with pytest.raises(ValueError, match="mismatch"):
        adam_step(state, {"w": np.zeros(2)}, {"w": np.zeros(3)})


def test_activation_signature_collects_masks():
    sig = activation_signature(
        {"relu_mask": np.array([True, False])},
        {"mask": np.array([[True]])},
        {"no_masks": 1},
    )
    np.testing.assert_array_equal(sig, [True, False, True])
    assert activation_signature({}).size == 0


def test_stencil_crossed_kink_rules():
    assert _stencil_crossed_kink(None, None) is False
    a = np.array([True, False])
    assert _stencil_crossed_kink(a, a.copy()) is False
    assert _stencil_crossed_kink(a, np.array([True, True])) is True


def test_gradient_check_quadratic():
    # Smooth quadratic: analytic gradient is exact, no exclusions.
    point = np.array([1.0, -2.0, 3.0])

    def loss_fn(p):
        return float(np.sum(p["x"] ** 2)), None

    rel, checked, excluded = gradient_check(loss_fn, {"x": point}, {"x": 2 * point})
    assert rel <= 1e-8
    assert checked == 3 and not excluded


@pytest.mark.parametrize("grads", [
    {"x": np.zeros(2), "y": np.zeros((2, 1))},  # another shape
    {"x": np.zeros(3)},  # a name missing
    {"x": np.zeros(3), "y": np.zeros((2, 1)), "z": np.zeros(1)},  # one too many
    {"x": np.zeros(3), "y": {"y": np.zeros((2, 1))}},  # nested once more
])
def test_gradient_check_refuses_gradients_of_other_names_or_shapes(grads):
    # No loss: the check refuses before it would evaluate one.
    with pytest.raises(ValueError, match="names and shapes"):
        gradient_check(None, {"x": np.ones(3), "y": np.ones((2, 1))}, grads)


def test_gradient_check_numbers_coordinates_in_dict_order():
    # Coordinate k is the k-th entry of the parameters flattened in their
    # order, nested dicts included, whatever order the gradients come in.
    params = {"b": np.array([[1.0, 2.0], [3.0, 4.0]]), "a": np.array([5.0]),
              "c": {"e": np.array([6.0, 7.0]), "d": np.array([8.0])}}
    grads = {"c": {"d": np.array([16.0]), "e": np.array([12.0, 15.0])},
             "a": np.array([10.0]), "b": 2.0 * params["b"]}
    bumped = []

    def loss_fn(p):
        flat = np.concatenate([p["b"].ravel(), p["a"], p["c"]["e"], p["c"]["d"]])
        bumped.append(int(np.flatnonzero(flat != np.arange(1.0, 9.0))[0]))
        # Only coordinate 6, whose gradient is off, crosses a kink.
        return float(np.sum(flat**2)), np.array([flat[6] > 7.0])

    rel, checked, excluded = gradient_check(loss_fn, params, grads)
    assert bumped[::2] == list(range(8))
    assert excluded == [6] and checked == 7 and rel <= 1e-8


# Boundaries of the 1e-5 pass rule for a linear loss whose gradient is
# off by ``offset`` in one coordinate, on both sides of the rule's 1e-5
# floor of the gradient scale and of 1e-5 relative.
@pytest.mark.parametrize("slope, offset, passes", [
    (1e-7, 5e-11, True),  # 5e-6 of the 1e-5 floor
    (1e-7, 5e-10, False),  # 5e-5 of the floor
    (1.0, 5e-6, True),
    (1.0, 5e-5, False),
])
def test_gradient_check_verdict_at_the_floor(slope, offset, passes):
    point = np.array([0.3, -0.2, 0.7])
    slopes = slope * np.array([1.0, -2.0, 0.5])

    def loss_fn(p):
        return float(slopes @ p["x"]), None

    grad = slopes.copy()
    grad[1] += offset
    rel, checked, _ = gradient_check(loss_fn, {"x": point}, {"x": grad})
    assert checked == 3 and (rel <= GRAD_TOL) == passes
