"""Layer forward/backward pairs: identities, oracles, gradient fidelity."""

import itertools

import numpy as np
import pytest

from ufg.datasets import path_graph
from ufg.graphs import build_graph, gcn_norm_adjacency
from ufg.nn import (
    AdamState,
    ConvLayerParams,
    LayerActivation,
    accuracy,
    activation_signature,
    adam_step,
    dropout_backward,
    dropout_forward,
    finite_difference_check,
    gcn_conv_backward,
    gcn_conv_forward,
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
from ufg.transform import CoefficientStack, decompose, framelet_operator

GRAD_TOL = 1e-5
IDENTITY_TOL = 1e-10
# The input layer computes decompose(X) W where the conv computes
# decompose(X W): the same linear map, summed in another order.
REASSOC_TOL = 1e-12


def _identity_params(op, d):
    return ConvLayerParams(
        W=np.eye(d), theta=np.ones(op.num_rows), bias=np.zeros(d)
    )


def test_init_params_ranges(rng):
    p = init_params(4, 3, 10, rng)
    assert p.W.shape == (4, 3)
    assert p.theta.shape == (10,)
    assert np.all((p.theta >= 0.9) & (p.theta <= 1.1))
    np.testing.assert_array_equal(p.bias, 0.0)
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
    assert p.W.tobytes() == W.tobytes() and p.theta.tobytes() == theta.tobytes()
    rng = np.random.default_rng(8)
    W1 = rng.uniform(-np.sqrt(6.0 / 9), np.sqrt(6.0 / 9), size=(5, 4))
    W2 = rng.uniform(-np.sqrt(6.0 / 6), np.sqrt(6.0 / 6), size=(4, 2))
    m = mlp_init(5, 4, 2, 8)
    assert m["W1"].tobytes() == W1.tobytes() and m["W2"].tobytes() == W2.tobytes()


def test_layer_activation_validation():
    with pytest.raises(ValueError, match="kind"):
        LayerActivation("tanh")
    with pytest.raises(ValueError, match="threshold"):
        LayerActivation("shrinkage")
    with pytest.raises(ValueError, match="threshold"):
        LayerActivation("relu", ThresholdConfig(1.0))


def test_linear_identity_layer(small_operator, rng):
    # Unit theta, identity W, zero bias: the layer is the tight-frame identity.
    n = small_operator.num_nodes
    X = rng.normal(size=(n, 3))
    y, _ = ufg_conv_forward(
        _identity_params(small_operator, 3), small_operator, X, LayerActivation.none()
    )
    assert np.max(np.abs(y - X)) <= IDENTITY_TOL


def test_sigma_zero_shrinkage_equals_linear(small_operator, rng):
    n = small_operator.num_nodes
    X = rng.normal(size=(n, 3))
    params = init_params(3, 2, small_operator.num_rows, rng)
    y_lin, _ = ufg_conv_forward(params, small_operator, X, LayerActivation.none())
    act = LayerActivation.shrinkage(ThresholdConfig(0.0))
    y_shr, _ = ufg_conv_forward(params, small_operator, X, act)
    np.testing.assert_array_equal(y_lin, y_shr)


def test_shrinkage_cache_holds_its_stacks(small_operator, rng):
    X = rng.normal(size=(small_operator.num_nodes, 3))
    params = init_params(3, 2, small_operator.num_rows, rng)
    cfg = ThresholdConfig(1.0, "energy_scaled")
    _, cache = ufg_conv_forward(params, small_operator, X, LayerActivation.shrinkage(cfg))
    filtered, shrunk = cache["filtered"], cache["shrunk"]
    np.testing.assert_array_equal(filtered.data, params.theta[:, None] * cache["coeff"])
    expected = shrink_stack(filtered, cfg, thresholds=cache["thresholds"])
    np.testing.assert_array_equal(shrunk.data, expected.data)
    np.testing.assert_array_equal(cache["active_mask"], shrunk.data != 0.0)


def test_conv_shape_errors(small_operator, rng):
    params = init_params(3, 2, small_operator.num_rows, rng)
    with pytest.raises(ValueError, match="X shape"):
        ufg_conv_forward(params, small_operator, np.zeros((5, 4)), LayerActivation.relu())
    short = ConvLayerParams(W=np.eye(3), theta=np.ones(3), bias=np.zeros(3))
    with pytest.raises(ValueError, match="theta length"):
        ufg_conv_forward(
            short,
            small_operator,
            np.zeros((small_operator.num_nodes, 3)),
            LayerActivation.relu(),
        )


def _pack_conv(p):
    return np.concatenate([p.W.ravel(), p.theta, p.bias])


def _conv_fd(small_operator, act, seed, frozen=None, out_op=None, d_in=3, d_out=2,
             wrt_input=False, max_coords=40):
    """``finite_difference_check`` of the layer's gradients in W, theta and
    bias, and with ``wrt_input`` in X before them."""
    rng = np.random.default_rng(seed)
    n = small_operator.num_nodes
    X = rng.normal(size=(n, d_in))
    params = init_params(d_in, d_out, small_operator.num_rows, rng)
    out_rows = n if out_op is None else out_op.num_signal_rows
    target = rng.normal(size=(out_rows, d_out))
    sizes = (X.size if wrt_input else 0, d_in * d_out, small_operator.num_rows, d_out)

    def unpack(vec):
        x, w, theta, bias = np.split(vec, np.cumsum(sizes)[:-1])
        x = x.reshape(n, d_in) if wrt_input else X
        return x, ConvLayerParams(W=w.reshape(d_in, d_out), theta=theta, bias=bias)

    y, cache = ufg_conv_forward(params, small_operator, X, act, out_op=out_op)
    thresholds = cache.get("thresholds") if frozen is None else frozen

    def loss_fn(vec):
        x, p = unpack(vec)
        out, c = ufg_conv_forward(
            p, small_operator, x, act, frozen_thresholds=thresholds, out_op=out_op,
        )
        return 0.5 * float(np.sum((out - target) ** 2)), activation_signature(c)

    dX, dW, dtheta, dbias = ufg_conv_backward(cache, y - target)
    point, grad = _pack_conv(params), np.concatenate([dW.ravel(), dtheta, dbias])
    if wrt_input:
        point, grad = np.concatenate([X.ravel(), point]), np.concatenate([dX.ravel(), grad])
    return finite_difference_check(
        loss_fn, point, grad, max_coords=max_coords, seed=seed
    )


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


ACTIVATIONS = ("relu", "shrinkage", "none")


def _operator(small_graph, small_operator, mode):
    if mode == "exact":
        return small_operator
    return framelet_operator(small_graph, 2.0, 2, 16, "chebyshev")


def _activation(kind):
    return {
        "relu": LayerActivation.relu(),
        "shrinkage": LayerActivation.shrinkage(ThresholdConfig(1.0, "energy_scaled")),
        "none": LayerActivation.none(),
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
    params.bias = rng.normal(size=d_out)
    grad_out = rng.normal(size=(operator.num_nodes, d_out))
    # Zero columns of X and rows of W widen the input to d_out: the same
    # layer, which then projects first in every case.
    pad = max(d_out - d_in, 0)
    wide = ConvLayerParams(W=np.vstack([params.W, np.zeros((pad, d_out))]),
                           theta=params.theta, bias=params.bias)
    y, cache = ufg_conv_forward(wide, operator, np.pad(X, ((0, 0), (0, pad))), act)
    assert "reconstructed" not in cache
    coeff_x = decompose(operator, X)
    y_in, cache_in = ufg_conv_forward(params, operator, coeff_x, act)
    assert _rel_err(y_in, y) <= REASSOC_TOL
    if kind != "shrinkage" and d_in < d_out:
        # No B*N x d_out coefficient stack is formed or kept.
        assert cache_in["coeff"] is coeff_x.data
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
    _, dW, dtheta, dbias = ufg_conv_backward(cache, grad_out)
    dX_in, dW_in, dtheta_in, dbias_in = ufg_conv_backward(cache_in, grad_out)
    assert dX_in is None
    assert _rel_err(dW_in, dW[:d_in]) <= REASSOC_TOL
    assert _rel_err(dtheta_in, dtheta) <= REASSOC_TOL
    assert _rel_err(dbias_in, dbias) <= REASSOC_TOL


def test_input_layer_shape_errors(small_graph, small_operator, rng):
    params = init_params(3, 2, small_operator.num_rows, rng)
    # A graph with one more node, or this graph at another level count: the
    # stack does not match the operator either way.
    for other in (framelet_operator(path_graph(small_operator.num_nodes + 1)),
                  framelet_operator(small_graph, levels=3)):
        coeff = decompose(other, np.zeros((other.num_nodes, 3)))
        with pytest.raises(ValueError, match="coefficient input does not match"):
            ufg_conv_forward(params, small_operator, coeff, LayerActivation.relu())
    with pytest.raises(ValueError, match="X shape"):
        narrow = decompose(small_operator, np.zeros((small_operator.num_nodes, 2)))
        ufg_conv_forward(params, small_operator, narrow, LayerActivation.relu())
    # Both orders refuse a theta of the wrong length: (3, 6) reconstructs
    # first under ReLU and none, (4, 3) projects first.
    for (d_in, d_out), act in itertools.product(
        [(4, 3), (3, 6)], [LayerActivation.relu(), LayerActivation.none()]
    ):
        long = init_params(d_in, d_out, small_operator.num_rows + 1, rng)
        coeff_x = CoefficientStack(
            np.zeros((small_operator.num_rows, d_in)), small_operator.block_index,
            small_operator.num_nodes,
        )
        with pytest.raises(ValueError, match="theta length"):
            ufg_conv_forward(long, small_operator, coeff_x, act)


def test_conv_gradients_relu(small_operator):
    rel, checked, _ = _conv_fd(small_operator, LayerActivation.relu(), seed=0)
    assert checked > 0 and rel <= GRAD_TOL


def test_conv_gradients_shrinkage_frozen_threshold(small_operator):
    act = LayerActivation.shrinkage(ThresholdConfig(1.0, "energy_scaled"))
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
    params.bias = rng.normal(size=2)
    grad_rows = rng.normal(size=(OUT_ROWS.size, 2))
    grad_full = np.zeros((op.num_nodes, 2))
    grad_full[OUT_ROWS] = grad_rows
    y, cache = ufg_conv_forward(params, op, X, act)
    y_rows, cache_rows = ufg_conv_forward(params, op, X, act,
                                          out_op=op.restrict(OUT_ROWS))
    full = (y[OUT_ROWS], *ufg_conv_backward(cache, grad_full))
    rows = (y_rows, *ufg_conv_backward(cache_rows, grad_rows))
    for actual, expected in zip(rows, full):
        if mode == "chebyshev":
            np.testing.assert_array_equal(actual, expected, strict=True)
        else:
            assert _rel_err(actual, expected) <= REASSOC_TOL


def test_conv_refuses_an_output_operator_of_another_graph(small_graph, small_operator):
    other = framelet_operator(small_graph, 2.0, 2, 16, "chebyshev")
    params = init_params(3, 2, small_operator.num_rows, 0)
    X = np.zeros((small_operator.num_nodes, 3))
    with pytest.raises(ValueError, match="out_op"):
        ufg_conv_forward(params, small_operator, X, LayerActivation.none(),
                         out_op=other.restrict(OUT_ROWS))


def test_conv_gradient_negative_control(small_operator, rng):
    # A corrupted gradient must be flagged; guards against vacuous checks.
    n, d = small_operator.num_nodes, 3
    X = rng.normal(size=(n, d))
    params = init_params(d, 2, small_operator.num_rows, rng)
    target = rng.normal(size=(n, 2))
    y, cache = ufg_conv_forward(params, small_operator, X, LayerActivation.relu())
    _, dW, dtheta, dbias = ufg_conv_backward(cache, y - target)
    corrupted = np.concatenate([dW.ravel() * 1.5, dtheta, dbias])

    def unpack(vec):
        w = vec[: d * 2].reshape(d, 2)
        return ConvLayerParams(
            W=w, theta=vec[d * 2 : d * 2 + small_operator.num_rows], bias=vec[-2:]
        )

    def loss_fn(vec):
        out, c = ufg_conv_forward(unpack(vec), small_operator, X, LayerActivation.relu())
        return 0.5 * float(np.sum((out - target) ** 2)), activation_signature(c)

    rel, checked, _ = finite_difference_check(
        loss_fn, _pack_conv(params), corrupted, max_coords=40, seed=2
    )
    assert checked > 0 and rel > 1e-2


def test_gcn_norm_adjacency_oracle():
    # Single edge: A + I is all-ones, degrees 2, normalized entries all 1/2.
    g = build_graph(2, [(0, 1, 1.0)])
    np.testing.assert_allclose(
        gcn_norm_adjacency(g).to_dense(), np.full((2, 2), 0.5), atol=1e-12
    )


def test_gcn_gradients(rng):
    g = path_graph(8)
    adj = gcn_norm_adjacency(g)
    X = rng.normal(size=(8, 3))
    W = rng.normal(size=(3, 2))
    target = rng.normal(size=(8, 2))
    y, cache = gcn_conv_forward(W, adj, X)
    _, dW = gcn_conv_backward(cache, y - target)

    def loss_fn(vec):
        out, c = gcn_conv_forward(vec.reshape(3, 2), adj, X)
        return 0.5 * float(np.sum((out - target) ** 2)), activation_signature(c)

    rel, checked, _ = finite_difference_check(
        loss_fn, W.ravel(), dW.ravel(), max_coords=6, seed=0
    )
    assert checked > 0 and rel <= GRAD_TOL


def test_mlp_gradients(rng):
    params = mlp_init(4, 5, 3, rng)
    X = rng.normal(size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    keys = sorted(params)
    sizes = [params[k].size for k in keys]

    def unpack(vec):
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        return {k: part.reshape(params[k].shape) for k, part in zip(keys, parts)}

    def loss_fn(vec):
        logits, c = mlp_forward(unpack(vec), X)
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss, activation_signature(c)

    logits, cache = mlp_forward(params, X)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    grads, _ = mlp_backward(cache, dlogits)
    point = np.concatenate([params[k].ravel() for k in keys])
    grad = np.concatenate([grads[k].ravel() for k in keys])
    rel, checked, _ = finite_difference_check(loss_fn, point, grad, max_coords=40, seed=1)
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
    manual = np.concatenate(
        [c.block(r, j).sum(axis=0) for (r, j) in small_operator.block_index]
    )
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

        def loss_fn(vec):
            out, _ = ufg_pool_forward(small_operator, vec.reshape(n, 2), mode)
            return 0.5 * float(np.sum((out - target) ** 2)), None

        rel, checked, _ = finite_difference_check(
            loss_fn, X.ravel(), dX.ravel(), max_coords=30, seed=3
        )
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


def test_finite_difference_check_quadratic():
    # Smooth quadratic: analytic gradient is exact, no exclusions.
    point = np.array([1.0, -2.0, 3.0])

    def loss_fn(vec):
        return float(np.sum(vec**2)), None

    rel, checked, excluded = finite_difference_check(loss_fn, point, 2 * point)
    assert rel <= 1e-8
    assert checked == 3 and not excluded
    with pytest.raises(ValueError, match="shape"):
        finite_difference_check(loss_fn, point, np.zeros(2))
