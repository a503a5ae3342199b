"""Framelet convolution, pooling and training primitives with hand gradients.

Layers follow a forward/backward pair convention: the forward returns the
output plus a cache, the backward consumes the cache and the upstream
gradient and returns exact gradients for every input but a fixed one.
A layer's parameters are a dict of named arrays, and its backward returns
their gradients as a dict of the same names; a model nests its layers'
dicts under the layers' names. ``adam_step`` updates such dicts, and
``gradient_check`` checks their gradients against kink-aware central
differences.

The framelet convolution computes ``Y = act(V diag(theta) W X')`` with
``X' = X W_dense``: project features, decompose, scale every stacked
coefficient row by the trainable filter ``theta``, apply the activation in
the coefficient domain (shrinkage) or after reconstruction (ReLU), and
reconstruct. ``theta`` has one entry per (block, node) row of the ``(B,
N, d)`` coefficients, flattened to ``B N`` entries and shared across
feature columns. ``ufg_conv_forward`` is the one layer, on a signal on the
nodes or on the coefficients of a fixed one; theta scales rows and W mixes
columns, so it may reconstruct before projecting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .shrinkage import ThresholdConfig, shrink_stack, stack_thresholds
from .sparse import SparseMatrix
from .transform import DecompositionOperator, decompose, reconstruct

READOUTS = ("sum", "spectrum")  # the modes of ``ufg_pool_forward``
# Adam's moment decay rates and denominator guard (Kingma & Ba 2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """A ``(fan_in, fan_out)`` draw from U(+-sqrt(6 / (fan_in + fan_out)))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(d_in: int, d_out: int, theta_len: int, rng) -> dict[str, np.ndarray]:
    """A framelet convolution's parameters ``{"W", "theta", "bias"}``:
    Xavier-uniform W, theta near one, zero bias; deterministic given rng.

    ``rng`` is a seed or ``numpy.random.Generator``. ``theta`` is drawn from
    U(0.9, 1.1) so the layer starts close to the tight-frame identity.
    """
    if min(d_in, d_out, theta_len) <= 0:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(rng)
    W = xavier_uniform(d_in, d_out, rng)
    theta = rng.uniform(0.9, 1.1, size=theta_len)
    bias = np.zeros(d_out)
    return {"W": W, "theta": theta, "bias": bias}


def _filtered_stack(
    theta: np.ndarray, op: DecompositionOperator, coeff: np.ndarray
) -> np.ndarray:
    """The ``(B, N, d)`` ``coeff`` with every (block, node) row scaled by
    its ``theta`` entry."""
    if theta.shape[0] != op.num_rows:
        raise ValueError("theta length must equal stacked row count")
    return theta.reshape(op.num_blocks, op.num_nodes, 1) * coeff


def _flat(c: np.ndarray) -> np.ndarray:
    """The ``(B N) x d`` matrix of the ``(B, N, d)`` coefficients ``c``, a
    view when ``c`` is C-contiguous: one BLAS product then serves every
    block."""
    return c.reshape(c.shape[0] * c.shape[1], c.shape[2])


def ufg_conv_forward(
    params: dict[str, np.ndarray],
    op: DecompositionOperator,
    X: np.ndarray,
    act: str | ThresholdConfig | None,
    frozen_thresholds: np.ndarray | None = None,
    out_op: DecompositionOperator | None = None,
) -> tuple[np.ndarray, dict]:
    """Framelet convolution forward pass.

    ``act`` is ``"relu"``, ``None`` (linear) or the ``ThresholdConfig`` of a
    shrinkage activation; anything else raises ``ValueError``. ReLU:
    ``Y = relu(reconstruct(theta * decompose(X W)) + bias)``, and ``None``
    leaves out the relu. Shrinkage thresholds the scaled coefficients by
    its config's rule before reconstruction and adds the bias outside:
    ``Y = reconstruct(shrink(theta * decompose(X W))) + bias``.

    ``X`` is an ``(N, d_in)`` signal on the nodes, or, when 3-d, the
    ``(B, N, d_in)`` coefficients ``decompose(op, X)`` of a fixed input,
    whose first two axes must be ``op``'s blocks and nodes
    (``op.check_coefficients``): a network whose
    first layer sees the same input every epoch decomposes it once.

    With ReLU or no activation and ``d_in < d_out`` the layer reconstructs
    first: ``R = reconstruct(theta * decompose(X))``, then ``act(R W +
    bias)``, so the operator runs at the narrower width ``d_in`` here and
    in the backward pass. Otherwise it projects first, the only order for
    shrinkage, which acts on the projected coefficients; ``decompose(X W)``
    of a coefficient input is ``C W`` by linearity. The cache holds the
    stack theta scales (``coeff``) and, when reconstructing first, ``R``
    (``reconstructed``).

    ``frozen_thresholds`` pins the shrinkage thresholds instead of deriving
    them from the current coefficients: a ``(B,)`` array in block order, as
    ``shrinkage.stack_thresholds`` returns. Finite-difference gradient
    checks use the nominal point's thresholds here because the backward
    pass stop-gradients them. The thresholds actually used are in the
    cache, with the stacks before and after shrinking (``thresholds``,
    ``filtered``, ``shrunk``).

    ``out_op`` (default ``op``) reconstructs the output, and the backward
    pass decomposes the upstream gradient through it. With ``out_op =
    op.restrict(rows)`` the layer outputs only the rows ``rows`` and takes
    its upstream gradient on them alone: the same layer for a loss that
    reads no other row, whose two output-side products in exact mode run
    on n columns of the stack instead of N. The input side and ``dX`` keep
    ``op``.
    """
    shrinks = isinstance(act, ThresholdConfig)
    if not (shrinks or act is None or act == "relu"):
        raise ValueError(f"act must be 'relu', None or a ThresholdConfig, got {act!r}")
    W, theta, bias = params["W"], params["theta"], params["bias"]
    X = np.asarray(X, dtype=np.float64)
    coeff_in = X.ndim == 3
    if coeff_in:
        op.check_coefficients(X, "coefficient input")
    if X.ndim not in (2, 3) or X.shape[-1] != W.shape[0]:
        raise ValueError("X shape does not match W")
    if out_op is None:
        out_op = op
    elif out_op.lap is not op.lap or out_op.system is not op.system:
        raise ValueError("out_op must be op or a restriction of it")
    cache = dict(op=op, out_op=out_op, act=act, theta=theta, W=W, X=X)
    project = shrinks or W.shape[0] >= W.shape[1]
    if coeff_in:
        coeff = (_flat(X) @ W).reshape(*X.shape[:2], W.shape[1]) if project else X
    else:
        coeff = decompose(op, X @ W if project else X)
    cache["coeff"] = coeff
    stack = _filtered_stack(theta, op, coeff)
    if shrinks:
        thresholds = (stack_thresholds(stack, act) if frozen_thresholds is None
                      else frozen_thresholds)
        shrunk = shrink_stack(stack, act, thresholds=thresholds)
        cache.update(thresholds=thresholds, filtered=stack, shrunk=shrunk,
                     active_mask=shrunk != 0.0)
        stack = shrunk
    r = reconstruct(out_op, stack)
    # Freed before the products below: held to the return, this (B, N, d)
    # temporary made Chebyshev node-training epochs about 5% slower.
    del stack
    if not project:
        cache["reconstructed"] = r
        r = r @ W
    z = r + bias
    if act == "relu":
        cache["relu_mask"] = z > 0.0
        z = np.maximum(z, 0.0)
    return z, cache


def ufg_conv_backward(
    cache: dict, grad_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gradients of the framelet convolution: the parameter dict (W,
    theta, bias) plus dX; ``grad_out`` has the rows of the forward pass's
    output.

    ``dX`` is None for a coefficient input, whose reconstruct is skipped.
    When the forward pass reconstructed first, ``dW = Rᵀ g`` needs no
    transform and the one decompose, of ``g Wᵀ``, runs at width ``d_in``.
    Shrinkage dead zones pass zero gradient; the data-dependent threshold
    is treated as a constant (stop-gradient). ReLU uses subgradient 0 at 0.
    """
    op, act, theta, W, X = (cache[k] for k in ("op", "act", "theta", "W", "X"))
    g = np.asarray(grad_out, dtype=np.float64)
    if act == "relu":
        g = g * cache["relu_mask"]
    r = cache.get("reconstructed")
    d_filtered = decompose(cache["out_op"], g if r is None else g @ W.T)
    if isinstance(act, ThresholdConfig):
        d_filtered = d_filtered * cache["active_mask"]
    dtheta = np.sum(d_filtered * cache["coeff"], axis=2).ravel()
    coeff_in = X.ndim == 3
    if r is not None:
        dW = r.T @ g
        dX = None if coeff_in else reconstruct(op, _filtered_stack(theta, op, d_filtered))
    elif coeff_in:
        dW, dX = _flat(X).T @ _flat(_filtered_stack(theta, op, d_filtered)), None
    else:
        dx_proj = reconstruct(op, _filtered_stack(theta, op, d_filtered))
        dW, dX = X.T @ dx_proj, dx_proj @ W.T
    return {"W": dW, "theta": dtheta, "bias": g.sum(axis=0)}, dX


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
    op: DecompositionOperator, X: np.ndarray, mode: str = "spectrum"
) -> tuple[np.ndarray, dict]:
    """Pool framelet coefficients blockwise into a fixed-length readout.

    Per block and feature: ``sum`` adds coefficients, ``spectrum`` adds their
    squares (the framelet power spectrum). Blocks are concatenated in
    operator order, giving a vector of length ``(num blocks) * d``.
    """
    if mode not in READOUTS:
        raise ValueError(f"mode must be one of {READOUTS}")
    coeff = decompose(op, X)
    pooled = (coeff if mode == "sum" else coeff**2).sum(axis=1)
    return pooled.ravel(), {"op": op, "coeff": coeff, "mode": mode}


def ufg_pool_backward(cache: dict, grad_out: np.ndarray) -> np.ndarray:
    """Gradient dX of the pooling readout. In ``sum`` mode every node of a
    block gets the same gradient, which ``reconstruct`` reads as a
    read-only broadcast view."""
    coeff = cache["coeff"]
    g = np.asarray(grad_out, dtype=np.float64).reshape(len(coeff), 1, coeff.shape[2])
    if cache["mode"] == "sum":
        return reconstruct(cache["op"], np.broadcast_to(g, coeff.shape))
    return reconstruct(cache["op"], 2.0 * coeff * g)


def _check_lengths(logits: np.ndarray, labels: np.ndarray, mask) -> None:
    """Refuse labels or a mask that do not have one entry per logit row."""
    m = logits.shape[0]
    if labels.shape != (m,):
        raise ValueError(f"labels have shape {labels.shape}, the logits {m} rows")
    if mask is not None and np.shape(mask) != (m,):
        raise ValueError(f"mask has shape {np.shape(mask)}, the logits {m} rows")


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Masked mean cross entropy with softmax; returns loss and dlogits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _check_lengths(logits, labels, mask)
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
    logits, labels = np.asarray(logits), np.asarray(labels)
    _check_lengths(logits, labels, mask)
    pred = logits.argmax(axis=1)
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


def dropout_forward(X: np.ndarray, p: float, rng) -> tuple[np.ndarray, dict]:
    """Inverted dropout of a training pass: zero with probability p, scale
    survivors by 1/(1-p). Evaluation passes do not call it."""
    if not (0.0 <= p < 1.0):
        raise ValueError("dropout probability must be in [0, 1)")
    X = np.asarray(X, dtype=np.float64)
    if p == 0.0:
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
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _leaves(params: dict, path: tuple = ()):
    """``(path, array)`` of every array in a dict of named arrays, or of
    such dicts, in dict order; ``path`` is the tuple of names to it."""
    for key, value in params.items():
        if isinstance(value, dict):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key), value


def _replaced(params: dict, path: tuple, value: np.ndarray) -> dict:
    """``params`` with the array at ``path`` replaced, the others shared."""
    key, *rest = path
    return {**params, key: _replaced(params[key], rest, value) if rest else value}


def adam_step(
    state: AdamState,
    params: dict,
    grads: dict,
    weight_decay: float = 0.0,
    decay_keys: frozenset[str] | set[str] = frozenset(),
) -> dict:
    """One bias-corrected Adam update at the decay rates ``ADAM_BETA1`` and
    ``ADAM_BETA2``; returns the new parameter dict.

    ``params`` and ``grads`` are dicts of named arrays, or of such dicts (a
    layer's parameters under the layer's name). A parameter's name joins
    its path with dots, as in ``"l1.W"``. Weight decay is coupled (added to
    the gradient as an L2 term) and only applied to parameters named in
    ``decay_keys``.
    """
    state.step += 1
    t = state.step
    grads = dict(_leaves(grads))
    out = params
    for path, p in _leaves(params):
        key = ".".join(path)
        g = np.asarray(grads[path], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {key!r}")
        if weight_decay and key in decay_keys:
            g = g + weight_decay * p
        if key not in state.m:
            state.m[key] = np.zeros_like(p)
            state.v[key] = np.zeros_like(p)
        state.m[key] = ADAM_BETA1 * state.m[key] + (1 - ADAM_BETA1) * g
        state.v[key] = ADAM_BETA2 * state.v[key] + (1 - ADAM_BETA2) * g**2
        m_hat = state.m[key] / (1 - ADAM_BETA1**t)
        v_hat = state.v[key] / (1 - ADAM_BETA2**t)
        out = _replaced(out, path, p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
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


def gradient_check(loss_fn, params: dict, grads: dict, h: float = 1e-5,
                   max_coords: int = 200, seed: int = 0) -> tuple[float, int, list[int]]:
    """Central finite differences of a loss against its analytic gradients.

    ``params`` and ``grads`` are dicts of named arrays, or of such dicts,
    with the same names and shapes; the coordinates are numbered through
    ``params`` flattened in its order. ``loss_fn(params)`` returns ``(loss,
    aux)``, where ``aux`` describes the activation state there: ``None``
    for a smooth loss, or an ``activation_signature`` array (a coordinate
    is excluded exactly when the signature differs between its two
    perturbed points, i.e. the stencil crossed a kink). Coordinates are
    subsampled to ``max_coords`` (seeded).

    Returns ``(ratio, checked, excluded)``: the largest ``|num - ana| /
    max(|num|, |ana|, 1e-5)`` over the checked coordinates, their count
    and the excluded coordinates. The 1e-5 floor keeps zero-gradient
    coordinates from inflating the ratio; a gradient passes at a tolerance
    ``tol >= 1e-5`` when ``ratio <= tol``.
    """
    leaves = list(_leaves(params))
    analytic = dict(_leaves(grads))
    if {p: np.shape(a) for p, a in leaves} != {p: np.shape(g) for p, g in analytic.items()}:
        raise ValueError("grads must have the names and shapes of params")
    offsets = np.cumsum([0] + [np.size(a) for _, a in leaves])
    coords = np.arange(offsets[-1])
    if coords.size > max_coords:
        rng = np.random.default_rng(seed)
        coords = np.sort(rng.choice(coords.size, size=max_coords, replace=False))
    numeric, ana, excluded = [], [], []
    for idx in coords:
        k = np.searchsorted(offsets, idx, side="right") - 1
        path, value = leaves[k]
        i = idx - offsets[k]
        point = np.asarray(value, dtype=np.float64)
        bumped = point.copy()
        bumped.flat[i] += h
        f_plus, aux_plus = loss_fn(_replaced(params, path, bumped))
        bumped.flat[i] = point.flat[i] - h
        f_minus, aux_minus = loss_fn(_replaced(params, path, bumped))
        if _stencil_crossed_kink(aux_plus, aux_minus):
            excluded.append(int(idx))
            continue
        numeric.append((f_plus - f_minus) / (2.0 * h))
        ana.append(np.asarray(analytic[path], dtype=np.float64).flat[i])
    numeric, ana = np.array(numeric, dtype=np.float64), np.array(ana, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(numeric), np.abs(ana)), 1e-5)
    return float((np.abs(numeric - ana) / scale).max(initial=0.0)), numeric.size, excluded
