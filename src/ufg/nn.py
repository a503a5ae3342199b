"""Framelet convolution, pooling and training primitives with hand gradients.

Layers follow a forward/backward pair convention: the forward returns the
output plus a cache, the backward consumes the cache and the upstream
gradient and returns exact gradients for every input.

The framelet convolution computes ``Y = act(V diag(theta) W X')`` with
``X' = X W_dense``: project features, decompose, scale every stacked
coefficient row by the trainable filter ``theta``, apply the activation in
the coefficient domain (shrinkage) or after reconstruction (ReLU), and
reconstruct. ``theta`` has one entry per stacked coefficient row, shared
across feature columns. ``ufg_input_conv_forward`` is the same layer for a
fixed input given by its coefficients ``C_X = decompose(X)``. With
shrinkage, or when ``d_in >= d_out``, it projects first and shares the
coefficient-domain core of ``ufg_conv_forward`` for theta, the activation
and the bias. With ReLU or no activation and ``d_in < d_out`` it
reconstructs ``theta * C_X`` first and projects afterwards, so both of its
operator applications run at the narrower width ``d_in``: theta scales
rows and W mixes columns, so the two orders give the same layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import gcn_norm_adjacency  # re-exported; it lives with the Laplacian
from .shrinkage import ThresholdConfig, shrink_stack, stack_thresholds
from .sparse import SparseMatrix
from .transform import CoefficientStack, DecompositionOperator, decompose, reconstruct

ACTIVATION_KINDS = ("relu", "shrinkage", "none")


@dataclass(frozen=True)
class LayerActivation:
    """Activation variant of a framelet convolution layer."""

    kind: str
    threshold: ThresholdConfig | None = None

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"kind must be one of {ACTIVATION_KINDS}")
        if (self.kind == "shrinkage") != (self.threshold is not None):
            raise ValueError("threshold required iff kind is 'shrinkage'")

    @staticmethod
    def relu() -> "LayerActivation":
        return LayerActivation("relu")

    @staticmethod
    def none() -> "LayerActivation":
        return LayerActivation("none")

    @staticmethod
    def shrinkage(cfg: ThresholdConfig) -> "LayerActivation":
        return LayerActivation("shrinkage", cfg)


@dataclass
class ConvLayerParams:
    """Trainable tensors of one framelet convolution layer."""

    W: np.ndarray
    theta: np.ndarray
    bias: np.ndarray


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """A ``(fan_in, fan_out)`` draw from U(+-sqrt(6 / (fan_in + fan_out)))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(d_in: int, d_out: int, theta_len: int, rng) -> ConvLayerParams:
    """Xavier-uniform W, theta near one, zero bias; deterministic given rng.

    ``rng`` is a seed or ``numpy.random.Generator``. ``theta`` is drawn from
    U(0.9, 1.1) so the layer starts close to the tight-frame identity.
    """
    if min(d_in, d_out, theta_len) <= 0:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(rng)
    W = xavier_uniform(d_in, d_out, rng)
    theta = rng.uniform(0.9, 1.1, size=theta_len)
    bias = np.zeros(d_out)
    return ConvLayerParams(W=W, theta=theta, bias=bias)


def _filtered_stack(
    theta: np.ndarray, op: DecompositionOperator, coeff: np.ndarray
) -> CoefficientStack:
    """``coeff`` with every stacked row scaled by its ``theta`` entry."""
    if theta.shape[0] != op.num_rows:
        raise ValueError("theta length must equal stacked row count")
    return CoefficientStack(
        data=theta[:, None] * coeff, block_index=op.block_index, num_nodes=op.num_nodes
    )


def _activate(z: np.ndarray, act: LayerActivation, cache: dict) -> np.ndarray:
    """ReLU or identity after reconstruction; ReLU records its mask."""
    if act.kind == "relu":
        cache["relu_mask"] = z > 0.0
        return np.maximum(z, 0.0)
    return z


def _masked_grad(cache: dict, grad_out: np.ndarray) -> np.ndarray:
    """Upstream gradient through ``_activate``; ReLU uses subgradient 0 at 0."""
    g = np.asarray(grad_out, dtype=np.float64)
    if cache["act"].kind == "relu":
        g = g * cache["relu_mask"]
    return g


def _coeff_conv_forward(
    params: ConvLayerParams,
    op: DecompositionOperator,
    coeff: np.ndarray,
    act: LayerActivation,
    frozen_thresholds: np.ndarray | None,
) -> tuple[np.ndarray, dict]:
    """Activation core of the framelet convolution, shared by both layers.

    ``coeff`` holds the decomposed projected input ``decompose(X W)``; the
    core scales it by ``theta``, applies the activation around the one
    reconstruction and adds the bias. The shrinkage variant keeps its
    thresholds and its stacks before and after shrinking in the cache
    (``thresholds``, ``filtered``, ``shrunk``).
    """
    fstack = _filtered_stack(params.theta, op, coeff)
    cache: dict = {"theta": params.theta, "coeff": coeff, "op": op, "act": act}
    if act.kind == "shrinkage":
        thresholds = (
            stack_thresholds(fstack, act.threshold)
            if frozen_thresholds is None
            else frozen_thresholds
        )
        shrunk = shrink_stack(fstack, act.threshold, thresholds=thresholds)
        y = reconstruct(op, shrunk) + params.bias
        cache["active_mask"] = shrunk.data != 0.0
        cache.update(thresholds=thresholds, filtered=fstack, shrunk=shrunk)
        return y, cache
    return _activate(reconstruct(op, fstack) + params.bias, act, cache), cache


def _coeff_conv_backward(
    cache: dict, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d coeff, dtheta, dbias) of the activation core.

    Shrinkage dead zones pass zero gradient; the data-dependent threshold is
    treated as a constant (stop-gradient). ReLU uses subgradient 0 at 0.
    """
    act: LayerActivation = cache["act"]
    g = _masked_grad(cache, grad_out)
    dbias = g.sum(axis=0)
    d_filtered = decompose(cache["op"], g).data
    if act.kind == "shrinkage":
        d_filtered = d_filtered * cache["active_mask"]
    dtheta = np.sum(d_filtered * cache["coeff"], axis=1)
    d_coeff = d_filtered * cache["theta"][:, None]
    return d_coeff, dtheta, dbias


def ufg_conv_forward(
    params: ConvLayerParams,
    op: DecompositionOperator,
    X: np.ndarray,
    act: LayerActivation,
    frozen_thresholds: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Framelet convolution forward pass.

    ReLU variant: ``Y = relu(reconstruct(theta * decompose(X W)) + bias)``.
    Shrinkage variant thresholds the scaled coefficients before
    reconstruction and adds the bias outside: ``Y = reconstruct(shrink(theta
    * decompose(X W))) + bias``.

    ``frozen_thresholds`` pins the shrinkage thresholds instead of deriving
    them from the current coefficients: a ``(B,)`` array in block order, as
    ``shrinkage.stack_thresholds`` returns. Finite-difference gradient
    checks use the nominal point's thresholds here because the backward
    pass stop-gradients them. The thresholds actually used are in the
    cache.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.W.shape[0]:
        raise ValueError("X shape does not match W")
    coeff = decompose(op, X @ params.W).data
    y, cache = _coeff_conv_forward(params, op, coeff, act, frozen_thresholds)
    cache["X"] = X
    cache["W"] = params.W
    return y, cache


def ufg_conv_backward(
    cache: dict, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dX, dW, dtheta, dbias) of the framelet convolution."""
    op: DecompositionOperator = cache["op"]
    d_coeff, dtheta, dbias = _coeff_conv_backward(cache, grad_out)
    stack = CoefficientStack(
        data=d_coeff, block_index=op.block_index, num_nodes=op.num_nodes
    )
    dx_proj = reconstruct(op, stack)
    dW = cache["X"].T @ dx_proj
    dX = dx_proj @ cache["W"].T
    return dX, dW, dtheta, dbias


def _reconstructs_first(act: LayerActivation, W: np.ndarray) -> bool:
    """Whether the input layer transforms at width ``d_in`` rather than
    ``d_out``: only when that is narrower and the activation comes after
    reconstruction (shrinkage acts on the projected coefficients)."""
    return act.kind != "shrinkage" and W.shape[0] < W.shape[1]


def ufg_input_conv_forward(
    params: ConvLayerParams,
    op: DecompositionOperator,
    coeff_x: np.ndarray,
    act: LayerActivation,
    frozen_thresholds: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """``ufg_conv_forward`` on an input given by its coefficients.

    ``coeff_x`` is ``decompose(op, X).data`` for a fixed input X, so a
    network whose first layer sees the same X every epoch decomposes X
    once. The layer's one reconstruction runs at the narrower of W's two
    widths where the activation allows:

    - ReLU or none with ``d_in < d_out``: ``R = reconstruct(theta *
      coeff_x)`` at width ``d_in``, then ``act(R W + bias)``. The cache
      holds ``R`` (``reconstructed``) instead of the coefficient stack.
    - Otherwise: ``decompose(X W) = coeff_x @ W`` by linearity, then the
      activation core of ``ufg_conv_forward``. This is the only order for
      shrinkage and the cheaper one when ``d_in >= d_out``.

    ``frozen_thresholds`` is as in ``ufg_conv_forward``.
    """
    coeff_x = np.asarray(coeff_x, dtype=np.float64)
    if coeff_x.shape != (op.num_rows, params.W.shape[0]):
        raise ValueError("coeff_x shape does not match the operator and W")
    if _reconstructs_first(act, params.W):
        r = reconstruct(op, _filtered_stack(params.theta, op, coeff_x))
        cache: dict = {"op": op, "act": act, "reconstructed": r, "W": params.W}
        y = _activate(r @ params.W + params.bias, act, cache)
    else:
        y, cache = _coeff_conv_forward(
            params, op, coeff_x @ params.W, act, frozen_thresholds
        )
    cache["coeff_x"] = coeff_x
    return y, cache


def ufg_input_conv_backward(
    cache: dict, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dW, dtheta, dbias) of ``ufg_input_conv_forward``.

    In the reconstruct-first order ``dW = Rᵀ g`` needs no transform, and
    ``dtheta`` sums ``decompose(g Wᵀ) * coeff_x`` over its row, so the one
    decompose runs at width ``d_in``. In the project-first order ``dW =
    coeff_xᵀ d coeff`` needs no reconstruction. The gradient of the fixed
    input is not formed.
    """
    if "reconstructed" in cache:
        g = _masked_grad(cache, grad_out)
        d_coeff_x = decompose(cache["op"], g @ cache["W"].T).data
        dtheta = np.sum(d_coeff_x * cache["coeff_x"], axis=1)
        return cache["reconstructed"].T @ g, dtheta, g.sum(axis=0)
    d_coeff, dtheta, dbias = _coeff_conv_backward(cache, grad_out)
    return cache["coeff_x"].T @ d_coeff, dtheta, dbias


def gcn_conv_forward(
    W: np.ndarray, norm_adj: SparseMatrix, X: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Graph convolution ``Y = relu(A^ X W)`` with precomputed ``A^``."""
    X = np.asarray(X, dtype=np.float64)
    h = norm_adj @ X
    z = h @ W
    y = np.maximum(z, 0.0)
    cache = {
        "h": h,
        "W": W,
        "mask": z > 0.0,
        "norm_adj": norm_adj,
    }
    return y, cache


def gcn_conv_backward(cache: dict, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dX, dW) of the graph convolution."""
    g = np.asarray(grad_out, dtype=np.float64) * cache["mask"]
    dW = cache["h"].T @ g
    dh = g @ cache["W"].T
    dX = cache["norm_adj"] @ dh
    return dX, dW


def ufg_pool_forward(
    op: DecompositionOperator, X: np.ndarray, mode: str
) -> tuple[np.ndarray, dict]:
    """Pool framelet coefficients blockwise into a fixed-length readout.

    Per block and feature: ``sum`` adds coefficients, ``spectrum`` adds their
    squares (the framelet power spectrum). Blocks are concatenated in
    operator order, giving a vector of length ``(num blocks) * d``.
    """
    if mode not in ("sum", "spectrum"):
        raise ValueError("mode must be 'sum' or 'spectrum'")
    coeff = decompose(op, X)
    if mode == "sum":
        pooled = coeff.blocks.sum(axis=1)
    else:
        pooled = (coeff.blocks**2).sum(axis=1)
    return pooled.ravel(), {"op": op, "coeff": coeff, "mode": mode}


def ufg_pool_backward(cache: dict, grad_out: np.ndarray) -> np.ndarray:
    """Gradient dX of the pooling readout."""
    coeff: CoefficientStack = cache["coeff"]
    blocks = coeff.blocks
    g = np.asarray(grad_out, dtype=np.float64).reshape(
        coeff.num_blocks, 1, coeff.num_features
    )
    if cache["mode"] == "sum":
        d_blocks = np.broadcast_to(g, blocks.shape)
    else:
        d_blocks = 2.0 * blocks * g
    return reconstruct(cache["op"], coeff.with_data(d_blocks.reshape(coeff.data.shape)))


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Masked mean cross entropy with softmax; returns loss and dlogits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = logits.shape[0]
    if mask is None:
        mask = np.ones(m, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("mask selects no samples")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    log_probs = shifted - log_z[:, None]
    loss = -float(np.mean(log_probs[mask, labels[mask]]))
    probs = np.exp(log_probs)
    dlogits = probs.copy()
    dlogits[np.arange(m), labels] -= 1.0
    dlogits[~mask] = 0.0
    dlogits /= count
    return loss, dlogits


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None) -> float:
    labels = np.asarray(labels)
    pred = np.asarray(logits).argmax(axis=1)
    if mask is None:
        return float(np.mean(pred == labels))
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no samples")
    return float(np.mean(pred[mask] == labels[mask]))


def mlp_init(d_in: int, hidden: int, d_out: int, rng) -> dict[str, np.ndarray]:
    """Two-layer MLP parameters, xavier-uniform weights and zero biases."""
    rng = np.random.default_rng(rng)
    return {
        "W1": xavier_uniform(d_in, hidden, rng),
        "b1": np.zeros(hidden),
        "W2": xavier_uniform(hidden, d_out, rng),
        "b2": np.zeros(d_out),
    }


def mlp_forward(params: dict[str, np.ndarray], X: np.ndarray) -> tuple[np.ndarray, dict]:
    """Two-layer MLP with ReLU between; returns logits and cache."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    z1 = X @ params["W1"] + params["b1"]
    h = np.maximum(z1, 0.0)
    logits = h @ params["W2"] + params["b2"]
    cache = {
        "X": X,
        "h": h,
        "mask": z1 > 0.0,
        "params": params,
    }
    return logits, cache


def mlp_backward(cache: dict, dlogits: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of the MLP: parameter dict plus dX."""
    params = cache["params"]
    dlogits = np.atleast_2d(np.asarray(dlogits, dtype=np.float64))
    grads = {
        "W2": cache["h"].T @ dlogits,
        "b2": dlogits.sum(axis=0),
    }
    dh = dlogits @ params["W2"].T
    dz1 = dh * cache["mask"]
    grads["W1"] = cache["X"].T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    dX = dz1 @ params["W1"].T
    return grads, dX


def dropout_forward(
    X: np.ndarray, p: float, rng, training: bool
) -> tuple[np.ndarray, dict]:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not (0.0 <= p < 1.0):
        raise ValueError("dropout probability must be in [0, 1)")
    X = np.asarray(X, dtype=np.float64)
    if not training or p == 0.0:
        return X, {"mask": None, "p": p}
    rng = np.random.default_rng(rng)
    mask = rng.random(X.shape) >= p
    return X * mask / (1.0 - p), {"mask": mask, "p": p}


def dropout_backward(cache: dict, grad_out: np.ndarray) -> np.ndarray:
    if cache["mask"] is None:
        return grad_out
    return grad_out * cache["mask"] / (1.0 - cache["p"])


@dataclass
class AdamState:
    """Adam accumulators for a named parameter set."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    weight_decay: float = 0.0,
    decay_keys: frozenset[str] | set[str] = frozenset(),
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns the new parameter dict.

    Weight decay is coupled (added to the gradient as an L2 term) and only
    applied to parameters named in ``decay_keys``.
    """
    state.step += 1
    t = state.step
    out: dict[str, np.ndarray] = {}
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {key!r}")
        if weight_decay and key in decay_keys:
            g = g + weight_decay * p
        if key not in state.m:
            state.m[key] = np.zeros_like(p)
            state.v[key] = np.zeros_like(p)
        state.m[key] = state.beta1 * state.m[key] + (1 - state.beta1) * g
        state.v[key] = state.beta2 * state.v[key] + (1 - state.beta2) * g**2
        m_hat = state.m[key] / (1 - state.beta1**t)
        v_hat = state.v[key] / (1 - state.beta2**t)
        out[key] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


def activation_signature(*caches: dict) -> np.ndarray:
    """Concatenated boolean activation pattern of a chain of layer caches.

    Collects the ReLU/shrinkage/dropout masks every forward cache records.
    Two evaluations with equal signatures lie on the same smooth piece of
    the loss, so central differences between them are valid.
    """
    parts = []
    for c in caches:
        for key in ("relu_mask", "active_mask", "mask"):
            val = c.get(key)
            if val is not None:
                parts.append(np.asarray(val, dtype=bool).ravel())
    if not parts:
        return np.zeros(0, dtype=bool)
    return np.concatenate(parts)


def _stencil_crossed_kink(aux_plus, aux_minus) -> bool:
    if aux_plus is None or aux_minus is None:
        return False
    a = np.asarray(aux_plus)
    b = np.asarray(aux_minus)
    return a.shape != b.shape or not np.array_equal(a, b)


def finite_difference_check(
    loss_fn,
    point: np.ndarray,
    analytic_grad: np.ndarray,
    h: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
) -> tuple[float, int, list[int]]:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(vec)`` must return ``(loss, aux)`` where ``aux`` describes the
    activation state at that point: ``None`` for a smooth loss, or an
    ``activation_signature`` array (the coordinate is excluded exactly when
    the signature differs between the two perturbed points, i.e. the
    stencil crossed a kink). Coordinates are subsampled to ``max_coords``
    (seeded); exclusions are reported.

    Returns ``(max relative error, checked count, excluded coordinates)``.
    Absolute errors below 1e-10 pass outright to keep zero-gradient
    coordinates from inflating the relative measure.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if point.shape != analytic_grad.shape:
        raise ValueError("gradient shape must match the point")
    size = point.size
    rng = np.random.default_rng(seed)
    if size > max_coords:
        coords = np.sort(rng.choice(size, size=max_coords, replace=False))
    else:
        coords = np.arange(size)
    max_rel = 0.0
    checked = 0
    excluded: list[int] = []
    for idx in coords:
        bumped = point.copy()
        bumped.flat[idx] += h
        f_plus, aux_plus = loss_fn(bumped)
        bumped.flat[idx] = point.flat[idx] - h
        f_minus, aux_minus = loss_fn(bumped)
        if _stencil_crossed_kink(aux_plus, aux_minus):
            excluded.append(int(idx))
            continue
        numeric = (f_plus - f_minus) / (2.0 * h)
        ana = analytic_grad.flat[idx]
        abs_err = abs(numeric - ana)
        if abs_err > 1e-10:
            max_rel = max(max_rel, abs_err / max(abs(numeric), abs(ana)))
        checked += 1
    return max_rel, checked, excluded
