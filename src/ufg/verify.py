"""Self-contained invariant suite for the transform stack.

``run_verify`` rebuilds small random instances and checks every structural
invariant the library promises, on the exact and the Chebyshev backend:
tight-frame identities, Chebyshev convergence, shrinkage laws, gradient
fidelity, pooling conservation and determinism. The CLI ``verify`` prints
one JSON line per property and backend, and exits 3 if any check fails.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .datasets import GaussianFeatures, check_seed, generate_sbm, random_er_graph
from .experiments import ExperimentConfig, train_node_classifier
from .filters import chebyshev_fit, verify_refinement
from .graphs import gershgorin_bound, validate_csr
from .nn import (
    activation_signature,
    gradient_check,
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
from .transform import (MODES, TransformSettings, block_energies, decompose,
                        framelet_operator, reconstruct)

# Round-trip tolerance of each backend: the exact stack is tight to
# round-off, the degree-16 Chebyshev fit to 1e-6.
_ROUND_TRIP_TOL = {"exact": 1e-10, "chebyshev": 1e-6}


def _rel(err: float, scale: float) -> float:
    return err / scale if scale > 0 else err


def _bounded(value: float, tol: float, detail: str):
    """Outcome of a check that passes when one measured ``value <= tol``."""
    value = float(value)
    return value <= tol, detail, value, tol


def _explicit(op) -> np.ndarray:
    """The stacked operator as a dense matrix: its image of the identity."""
    return decompose(op, np.eye(op.num_nodes)).reshape(op.num_rows, op.num_nodes)


def _fixtures(n: int, seed: int):
    rng = np.random.default_rng(seed)
    graph = random_er_graph(n, avg_degree=6.0, rng=rng)
    # Every operator of the suite comes from framelet_operator, so K comes
    # from the graph's one Lanczos bound on both backends.
    ops = {m: framelet_operator(graph, TransformSettings(levels=2, mode=m)) for m in MODES}
    X = rng.normal(size=(n, 3))
    return {"rng": rng, "graph": graph, "system": ops["exact"].system, "ops": ops, "X": X}


def run_verify(n: int = 100, seed: int = 7) -> list[dict]:
    """Run every invariant check; returns one report dict per row.

    A check that reads a framelet operator runs on the fixture graph's
    exact operator, then on its Chebyshev one; every other check runs once.
    Each report holds ``name``, ``mode`` (the backend, ``None`` for a check
    run once), ``passed`` and ``detail``, plus ``value`` and ``tol``: the
    measured number and its tolerance for a check that compares one number
    with a tolerance, ``None`` for every other check.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1 node, got {n}")
    check_seed(seed, "seed")
    fx = _fixtures(n, seed)
    once = (None,)
    checks = [
        (_check_csr_layout, once),
        (_check_laplacian_spectrum, once),
        (_check_lambda_max_bounds, once),
        (_check_partition_of_unity, once),
        (_check_refinement, once),
        (_check_chebyshev_scalar_fit, once),
        (_check_round_trip, MODES),
        (_check_parseval, MODES),
        (_check_cascade, MODES),
        (_check_stacked_tightness, once),
        (_check_path_equivalence, once),
        (_check_lowpass_telescope, once),
        (_check_shrinkage_laws, MODES),
        (_check_soft_threshold_nonexpansive, once),
        (_check_layer_identity, MODES),
        (_check_sigma_zero_ab, MODES),
        (_check_gradients, MODES),
        (_check_spectrum_pool, MODES),
        (_check_training_determinism, MODES),
    ]
    reports = []
    for check, modes in checks:
        name = check.__name__.removeprefix("_check_")
        for mode in modes:
            value = tol = None
            try:
                args = (fx,) if mode is None else (fx, fx["ops"][mode])
                passed, detail, *measured = check(*args)
                if measured:
                    value, tol = measured
            except Exception as exc:  # a crashed check is a failed property
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            reports.append({"name": name, "mode": mode, "passed": bool(passed),
                            "detail": detail, "value": value, "tol": tol})
    return reports


def _check_csr_layout(fx):
    graph = fx["graph"]
    lap = graph.laplacian.csr
    validate_csr(lap)
    validate_csr(graph.adjacency.csr)
    diff = lap - lap.T
    asym = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    return _bounded(asym, 1e-12, f"max asymmetry {asym:.2e}")


def _check_laplacian_spectrum(fx):
    spectrum = fx["graph"].spectrum
    vals = spectrum.values
    ok = vals.size == 0 or (vals[0] >= -1e-10 and vals[-1] <= 2.0 + 1e-9)
    ortho = np.max(np.abs(spectrum.vectors.T @ spectrum.vectors - np.eye(len(vals))))
    return ok and ortho <= 1e-9, f"range [{vals[0]:.2e}, {vals[-1]:.6f}], orthonormality {ortho:.2e}"


def _check_lambda_max_bounds(fx):
    exact = float(fx["graph"].spectrum.values[-1])
    # The estimate framelet_operator takes K from in both modes.
    lanczos = fx["graph"].lanczos_bound
    gersh = gershgorin_bound(fx["graph"].laplacian.csr)
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


def _check_round_trip(fx, op):
    X = fx["X"]
    err = np.linalg.norm(reconstruct(op, decompose(op, X)) - X)
    rel = _rel(err, np.linalg.norm(X))
    tol = _ROUND_TRIP_TOL[op.system.settings.mode]
    return _bounded(rel, tol, f"relative round-trip error {rel:.2e} (tol {tol:g})")


def _check_parseval(fx, op):
    X = fx["X"]
    total = sum(block_energies(decompose(op, X)))
    rel = abs(total - np.sum(X**2)) / np.sum(X**2)
    tol = _ROUND_TRIP_TOL[op.system.settings.mode]
    return _bounded(rel, tol, f"relative energy mismatch {rel:.2e} (tol {tol:g})")


def _check_cascade(fx, op):
    system, settings, X = op.system, op.system.settings, fx["X"]
    worst = 0.0
    prev_low = X
    for j in range(1, settings.levels + 1):
        # The graph keeps only its latest operator, the levels J - 1 one by
        # now, so the levels-J operator is the fixture's rather than a rebuild.
        op_j = (op if j == settings.levels
                else framelet_operator(fx["graph"], replace(settings, levels=j)))
        c = decompose(op_j, X)
        low_j = c[0]
        detail = sum(float(np.sum(c[op_j.block_index.index((r, j))] ** 2))
                     for r in range(1, system.num_high + 1))
        lhs = float(np.sum(prev_low**2))
        rhs = float(np.sum(low_j**2)) + detail
        worst = max(worst, _rel(abs(lhs - rhs), lhs))
        prev_low = low_j
    return _bounded(worst, 1e-9, f"max per-level energy mismatch {worst:.2e}")


def _check_stacked_tightness(fx):
    errors = {}
    cheb8 = framelet_operator(
        fx["graph"], replace(fx["system"].settings, degree=8, mode="chebyshev"))
    # The fixture's Chebyshev operator is the t = 16 one.
    for t, op in ((8, cheb8), (16, fx["ops"]["chebyshev"])):
        w = _explicit(op)
        errors[t] = float(np.max(np.abs(w.T @ w - np.eye(w.shape[1]))))
    ok = errors[16] <= 1e-6 and errors[8] > errors[16]
    return ok, f"tightness error t=16 {errors[16]:.2e}, t=8 {errors[8]:.2e}"


def _check_path_equivalence(fx):
    ops = fx["ops"]
    worst = float(np.max(np.abs(_explicit(ops["exact"]) - _explicit(ops["chebyshev"]))))
    return _bounded(worst, 1e-6, f"max entrywise block difference {worst:.2e}")


def _check_lowpass_telescope(fx):
    system, spectrum = fx["system"], fx["graph"].spectrum
    lam = spectrum.values
    prod = np.ones_like(lam)
    for j in range(1, system.settings.levels + 1):
        prod = prod * system.bank.low_pass(system.factor_scale(j) * lam)
    direct = spectrum.matrix_function(prod)
    low = _explicit(fx["ops"]["exact"])[: lam.size]
    err = float(np.max(np.abs(low - direct)))
    return _bounded(err, 1e-10, f"low-pass telescope mismatch {err:.2e}")


def _check_shrinkage_laws(fx, op):
    c = decompose(op, fx["X"])
    prev_nnz = None
    monotone = True
    for sigma in (0.0, 0.5, 1.0, 2.0, 4.0, np.inf):
        shrunk = shrink_stack(c, ThresholdConfig(sigma, "global"))
        if not np.array_equal(shrunk[0], c[0]):
            return False, f"low pass modified at sigma={sigma}"
        nnz = count_nonzero(shrunk)
        if prev_nnz is not None and nnz > prev_nnz:
            monotone = False
        prev_nnz = nnz
    sig0 = shrink_stack(c, ThresholdConfig(0.0, "global"))
    identity = np.array_equal(sig0, c)
    once = shrink_stack(c, ThresholdConfig(1.0, "global"))
    twice = shrink_stack(once, ThresholdConfig(0.5, "global"))
    dead_stays = np.all(twice[once == 0.0] == 0.0)
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


def _check_layer_identity(fx, op):
    X = fx["X"]
    d = X.shape[1]
    params = {"W": np.eye(d), "theta": np.ones(op.num_rows), "bias": np.zeros(d)}
    y, _ = ufg_conv_forward(params, op, X, None)
    rel = _rel(np.linalg.norm(y - X), np.linalg.norm(X))
    tol = _ROUND_TRIP_TOL[op.system.settings.mode]
    return _bounded(rel, tol, f"identity-layer relative error {rel:.2e}")


def _check_sigma_zero_ab(fx, op):
    X = fx["X"]
    d = X.shape[1]
    rng = np.random.default_rng(0)
    params = init_params(d, 2, op.num_rows, rng)
    y_s, _ = ufg_conv_forward(params, op, X, ThresholdConfig(0.0, "global"))
    y_n, _ = ufg_conv_forward(params, op, X, None)
    same = np.array_equal(y_s, y_n)
    return same, f"sigma=0 shrinkage layer bitwise equals linear layer: {same}"


def _check_gradients(fx, fixture_op):
    rng = np.random.default_rng(11)
    n, d, dd = 12, 3, 2
    graph = random_er_graph(n, avg_degree=3.0, rng=rng)
    op = framelet_operator(graph, fixture_op.system.settings)
    X = rng.normal(size=(n, d))
    labels = rng.integers(0, dd, size=n)
    # Its W, theta, bias order numbers the coordinates the seeded check draws.
    params = init_params(d, dd, op.num_rows, rng)
    acts = {
        "relu": "relu",
        "shrinkage": ThresholdConfig(1.0, mode="energy_scaled"),
    }
    details, worst, checked = [], 0.0, []
    for name, act in acts.items():
        y, cache = ufg_conv_forward(params, op, X, act)
        _, dlogits = softmax_cross_entropy(y, labels)
        grads, _ = ufg_conv_backward(cache, dlogits)
        frozen = cache.get("thresholds")

        def loss_fn(p):
            y2, c2 = ufg_conv_forward(p, op, X, act, frozen_thresholds=frozen)
            val, _ = softmax_cross_entropy(y2, labels)
            return val, activation_signature(c2)

        ratio, count, _ = gradient_check(loss_fn, params, grads, max_coords=120, seed=3)
        worst = max(worst, ratio)
        checked.append(count)
        details.append(f"{name} {ratio:.2e}/{count} coords")
    passed, *measured = _bounded(
        worst, 1e-5, "max relative gradient error " + ", ".join(details))
    return passed and min(checked) > 0, *measured


def _check_spectrum_pool(fx, op):
    X = fx["X"]
    pooled, _ = ufg_pool_forward(op, X, "spectrum")
    rel = _rel(abs(float(pooled.sum()) - float(np.sum(X**2))), float(np.sum(X**2)))
    return _bounded(rel, 1e-8, f"pooled energy relative mismatch {rel:.2e}")


def _check_training_determinism(fx, op):
    def data():
        return generate_sbm(
            [20, 20], 0.3, 0.05, GaussianFeatures(dim=4, noise_std=0.3), seed=5
        )

    config = ExperimentConfig(epochs=3, seeds=(0,), hidden=4, task="determinism",
                              mode=op.system.settings.mode)
    # Two equal datasets, so that the re-run computes its own Laplacian,
    # spectrum and operator instead of reading the first run's.
    a = train_node_classifier(data(), config)
    b = train_node_classifier(data(), config)
    same = a.per_seed == b.per_seed and a.mean == b.mean
    return same, f"re-run metrics identical: {same}"
