"""Self-contained invariant suite for the transform stack.

``run_verify`` rebuilds small random instances and checks every structural
invariant the library promises: tight-frame identities, Chebyshev
convergence, shrinkage laws, gradient fidelity, pooling conservation and
determinism. The CLI ``verify`` subcommand prints one JSON line per property
and fails with a dedicated exit code if any check fails.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .datasets import GaussianFeatures, generate_sbm, random_er_graph
from .experiments import ExperimentConfig, train_node_classifier
from .filters import chebyshev_fit, haar_filter_bank, verify_refinement
from .graphs import lambda_max
from .nn import (
    LayerActivation,
    ConvLayerParams,
    activation_signature,
    finite_difference_check,
    init_params,
    softmax_cross_entropy,
    ufg_conv_backward,
    ufg_conv_forward,
    ufg_pool_forward,
)
from .shrinkage import (
    ThresholdConfig,
    compression_ratio,
    count_nonzero,
    shrink_stack,
    soft_threshold,
)
from .transform import (
    build_operators,
    block_energies,
    decompose,
    framelet_operator,
    make_system,
    reconstruct,
)


def _rel(err: float, scale: float) -> float:
    return err / scale if scale > 0 else err


def _bounded(value: float, tol: float, detail: str):
    """Outcome of a check that passes when one measured ``value <= tol``."""
    value = float(value)
    return value <= tol, detail, value, tol


def _explicit(op) -> np.ndarray:
    """The stacked operator as a dense matrix: its image of the identity."""
    return decompose(op, np.eye(op.num_nodes)).data


def _fixtures(n: int, seed: int, mode: str):
    rng = np.random.default_rng(seed)
    graph = random_er_graph(n, avg_degree=6.0, rng=rng)
    # K comes from the exact top eigenvalue in both modes.
    lap, spectrum = graph.laplacian, graph.spectrum
    lam = float(spectrum.values[-1]) if spectrum.values.size else 0.0
    system = make_system(haar_filter_bank(), lam, levels=2, mode=mode)
    op = build_operators(system, lap, spectrum if mode == "exact" else None)
    X = rng.normal(size=(n, 3))
    return {
        "rng": rng, "graph": graph, "lap": lap, "spectrum": spectrum,
        "lam": lam, "system": system, "op": op, "X": X,
    }


def run_verify(mode: str = "exact", n: int = 100, seed: int = 7) -> list[dict]:
    """Run every invariant check; returns one report dict per property.

    Each report holds ``name``, ``passed`` and ``detail``, plus ``value`` and
    ``tol``: the measured number and its tolerance for a check that compares
    one number with a tolerance, ``None`` for every other check.
    """
    if mode not in ("exact", "chebyshev"):
        raise ValueError("mode must be 'exact' or 'chebyshev'")
    if n < 1:
        raise ValueError(f"n must be at least 1 node, got {n}")
    fx = _fixtures(n, seed, mode)
    checks = [
        _check_csr_layout,
        _check_laplacian_spectrum,
        _check_lambda_max_bounds,
        _check_partition_of_unity,
        _check_refinement,
        _check_chebyshev_scalar_fit,
        _check_round_trip,
        _check_parseval,
        _check_cascade,
        _check_stacked_tightness,
        _check_path_equivalence,
        _check_lowpass_telescope,
        _check_shrinkage_laws,
        _check_soft_threshold_nonexpansive,
        _check_layer_identity,
        _check_sigma_zero_ab,
        _check_gradients,
        _check_spectrum_pool,
        _check_training_determinism,
    ]
    reports = []
    for check in checks:
        name = check.__name__.removeprefix("_check_")
        value = tol = None
        try:
            passed, detail, *measured = check(fx)
            if measured:
                value, tol = measured
        except Exception as exc:  # a crashed check is a failed property
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        reports.append({"name": name, "passed": bool(passed), "detail": detail,
                        "value": value, "tol": tol})
    return reports


def _check_csr_layout(fx):
    fx["lap"].validate()
    fx["graph"].adjacency.validate()
    asym = fx["lap"].max_abs_asymmetry()
    return _bounded(asym, 1e-12, f"max asymmetry {asym:.2e}")


def _check_laplacian_spectrum(fx):
    vals = fx["spectrum"].values
    ok = vals.size == 0 or (vals[0] >= -1e-10 and vals[-1] <= 2.0 + 1e-9)
    ortho = np.max(np.abs(fx["spectrum"].vectors.T @ fx["spectrum"].vectors - np.eye(len(vals))))
    return ok and ortho <= 1e-9, f"range [{vals[0]:.2e}, {vals[-1]:.6f}], orthonormality {ortho:.2e}"


def _check_lambda_max_bounds(fx):
    exact = lambda_max(fx["lap"], "exact")
    # The estimate framelet_operator takes K from in Chebyshev mode.
    lanczos = fx["graph"].lanczos_bound
    gersh = fx["lap"].gershgorin_bound()
    ok = exact - 1e-6 <= lanczos <= gersh + 1e-12
    return ok, f"exact {exact:.6f} <= lanczos {lanczos:.6f} <= gershgorin {gersh:.6f}"


def _check_partition_of_unity(fx):
    grid = np.linspace(0.0, 2.0 * np.pi, 1001)
    residual = float(np.max(np.abs(fx["system"].bank.partition_residual(grid))))
    return _bounded(residual, 1e-12, f"max residual {residual:.2e}")


def _check_refinement(fx):
    grid = np.linspace(0.0, 2.0 * np.pi, 2001)
    errs = verify_refinement(fx["system"].bank, grid)
    worst = max(errs.values())
    return _bounded(worst, 1e-12, f"max two-scale residual {worst:.2e}")


def _check_chebyshev_scalar_fit(fx):
    bank = fx["system"].bank
    grid = np.linspace(0.0, 2.0, 513)
    worst = 0.0
    for fn in (bank.low_pass, *bank.high_passes):
        fit = chebval(grid - 1.0, chebyshev_fit(fn, degree=16))
        worst = max(worst, float(np.max(np.abs(fit - fn(grid)))))
    return _bounded(worst, 1e-9, f"max fit error at t=16: {worst:.2e}")


def _check_round_trip(fx):
    X = fx["X"]
    err = np.linalg.norm(reconstruct(fx["op"], decompose(fx["op"], X)) - X)
    rel = _rel(err, np.linalg.norm(X))
    tol = 1e-10 if fx["op"].provenance["mode"] == "exact" else 1e-6
    return _bounded(rel, tol, f"relative round-trip error {rel:.2e} (tol {tol:g})")


def _check_parseval(fx):
    X = fx["X"]
    total = sum(block_energies(decompose(fx["op"], X)))
    rel = abs(total - np.sum(X**2)) / np.sum(X**2)
    tol = 1e-10 if fx["op"].provenance["mode"] == "exact" else 1e-6
    return _bounded(rel, tol, f"relative energy mismatch {rel:.2e} (tol {tol:g})")


def _check_cascade(fx):
    system, lap, spectrum, X = fx["system"], fx["lap"], fx["spectrum"], fx["X"]
    worst = 0.0
    prev_low = X
    for j in range(1, system.levels + 1):
        sub = dataclasses.replace(system, levels=j)
        op_j = build_operators(sub, lap, spectrum if system.mode == "exact" else None)
        c = decompose(op_j, X)
        low_j = c.low_pass()
        detail = sum(
            float(np.sum(c.block(r, j) ** 2)) for r in range(1, system.num_high + 1)
        )
        lhs = float(np.sum(prev_low**2))
        rhs = float(np.sum(low_j**2)) + detail
        worst = max(worst, _rel(abs(lhs - rhs), lhs))
        prev_low = low_j
    return _bounded(worst, 1e-9, f"max per-level energy mismatch {worst:.2e}")


def _check_stacked_tightness(fx):
    errors = {}
    for t in (8, 16):
        system = dataclasses.replace(fx["system"], mode="chebyshev", degree=t)
        w = _explicit(build_operators(system, fx["lap"]))
        errors[t] = float(np.max(np.abs(w.T @ w - np.eye(fx["lap"].num_rows))))
    ok = errors[16] <= 1e-6 and errors[8] > errors[16]
    return ok, f"tightness error t=16 {errors[16]:.2e}, t=8 {errors[8]:.2e}"


def _check_path_equivalence(fx):
    exact_op = build_operators(
        dataclasses.replace(fx["system"], mode="exact"), fx["lap"], fx["spectrum"]
    )
    cheb_op = build_operators(
        dataclasses.replace(fx["system"], mode="chebyshev", degree=16), fx["lap"]
    )
    worst = float(np.max(np.abs(_explicit(exact_op) - _explicit(cheb_op))))
    return _bounded(worst, 1e-6, f"max entrywise block difference {worst:.2e}")


def _check_lowpass_telescope(fx):
    system, spectrum = fx["system"], fx["spectrum"]
    lam = spectrum.values
    prod = np.ones_like(lam)
    for j in range(1, system.levels + 1):
        prod = prod * system.bank.low_pass(system.factor_scale(j) * lam)
    direct = spectrum.matrix_function(prod)
    exact_op = build_operators(
        dataclasses.replace(system, mode="exact"), fx["lap"], spectrum
    )
    low = _explicit(exact_op)[: exact_op.num_nodes]
    err = float(np.max(np.abs(low - direct)))
    return _bounded(err, 1e-10, f"low-pass telescope mismatch {err:.2e}")


def _check_shrinkage_laws(fx):
    c = decompose(fx["op"], fx["X"])
    prev_nnz = None
    monotone = True
    for sigma in (0.0, 0.5, 1.0, 2.0, 4.0, np.inf):
        shrunk = shrink_stack(c, ThresholdConfig(sigma, "global"))
        if not np.array_equal(shrunk.low_pass(), c.low_pass()):
            return False, f"low pass modified at sigma={sigma}"
        nnz = count_nonzero(shrunk)
        if prev_nnz is not None and nnz > prev_nnz:
            monotone = False
        prev_nnz = nnz
    sig0 = shrink_stack(c, ThresholdConfig(0.0, "global"))
    identity = np.array_equal(sig0.data, c.data)
    once = shrink_stack(c, ThresholdConfig(1.0, "global"))
    twice = shrink_stack(once, ThresholdConfig(0.5, "global"))
    dead_stays = np.all(twice.data[once.data == 0.0] == 0.0)
    ratio = compression_ratio(c, once)
    ok = monotone and identity and bool(dead_stays) and 0.0 <= ratio <= 1.0
    return ok, (
        f"monotone={monotone}, sigma0 identity={identity}, "
        f"dead zone stays zero={bool(dead_stays)}, ratio={ratio:.3f}"
    )


def _check_soft_threshold_nonexpansive(fx):
    rng = fx["rng"]
    x = rng.normal(size=1000)
    y = rng.normal(size=1000)
    for lam in (0.0, 0.1, 1.0):
        lhs = np.abs(soft_threshold(x, lam) - soft_threshold(y, lam))
        if np.any(lhs > np.abs(x - y) + 1e-15):
            return False, f"expansion at lambda={lam}"
    return True, "|S(x)-S(y)| <= |x-y| on 1000 samples, 3 thresholds"


def _check_layer_identity(fx):
    if fx["op"].provenance["mode"] != "exact":
        return True, "skipped (exact-path property)"
    X = fx["X"]
    d = X.shape[1]
    params = ConvLayerParams(
        W=np.eye(d), theta=np.ones(fx["op"].num_rows), bias=np.zeros(d)
    )
    y, _ = ufg_conv_forward(params, fx["op"], X, LayerActivation.none())
    rel = _rel(np.linalg.norm(y - X), np.linalg.norm(X))
    return _bounded(rel, 1e-10, f"identity-layer relative error {rel:.2e}")


def _check_sigma_zero_ab(fx):
    X = fx["X"]
    d = X.shape[1]
    rng = np.random.default_rng(0)
    params = init_params(d, 2, fx["op"].num_rows, rng)
    act_s = LayerActivation.shrinkage(ThresholdConfig(0.0, "global"))
    y_s, _ = ufg_conv_forward(params, fx["op"], X, act_s)
    y_n, _ = ufg_conv_forward(params, fx["op"], X, LayerActivation.none())
    same = np.array_equal(y_s, y_n)
    return same, f"sigma=0 shrinkage layer bitwise equals linear layer: {same}"


def _check_gradients(fx):
    rng = np.random.default_rng(11)
    n, d, dd = 12, 3, 2
    op = framelet_operator(random_er_graph(n, avg_degree=3.0, rng=rng), levels=2)
    X = rng.normal(size=(n, d))
    labels = rng.integers(0, dd, size=n)
    params = init_params(d, dd, op.num_rows, rng)

    def pack(p):
        return np.concatenate([p.W.ravel(), p.theta, p.bias])

    def unpack(vec):
        w = vec[: d * dd].reshape(d, dd)
        theta = vec[d * dd : d * dd + op.num_rows]
        bias = vec[d * dd + op.num_rows :]
        return ConvLayerParams(W=w, theta=theta, bias=bias)

    acts = {
        "relu": LayerActivation.relu(),
        "shrinkage": LayerActivation.shrinkage(
            ThresholdConfig(1.0, mode="energy_scaled")
        ),
    }
    details = []
    ok = True
    for name, act in acts.items():
        point = pack(params)
        y, cache = ufg_conv_forward(unpack(point), op, X, act)
        loss, dlogits = softmax_cross_entropy(y, labels)
        _, dW, dtheta, dbias = ufg_conv_backward(cache, dlogits)
        grad = np.concatenate([dW.ravel(), dtheta, dbias])
        frozen = cache.get("thresholds")

        def loss_fn(vec):
            p = unpack(vec)
            y2, c2 = ufg_conv_forward(p, op, X, act, frozen_thresholds=frozen)
            val, _ = softmax_cross_entropy(y2, labels)
            return val, activation_signature(c2)

        max_rel, checked, excluded = finite_difference_check(
            loss_fn, point, grad, max_coords=120, seed=3
        )
        ok = ok and max_rel <= 1e-5 and checked > 0
        details.append(f"{name} {max_rel:.2e}/{checked} coords")
    return ok, "max relative gradient error " + ", ".join(details)


def _check_spectrum_pool(fx):
    if fx["op"].provenance["mode"] != "exact":
        return True, "skipped (exact-path property)"
    X = fx["X"]
    pooled, _ = ufg_pool_forward(fx["op"], X, "spectrum")
    rel = _rel(abs(float(pooled.sum()) - float(np.sum(X**2))), float(np.sum(X**2)))
    return _bounded(rel, 1e-8, f"pooled energy relative mismatch {rel:.2e}")


def _check_training_determinism(fx):
    data = generate_sbm(
        [20, 20], 0.3, 0.05, GaussianFeatures(dim=4, noise_std=0.3), seed=5
    )
    config = ExperimentConfig(epochs=3, seeds=(0,), hidden=4, task="determinism")
    a = train_node_classifier(data, config)
    b = train_node_classifier(data, config)
    same = a.per_seed == b.per_seed and a.mean == b.mean
    return same, f"re-run metrics identical: {same}"
