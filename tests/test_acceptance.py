"""Acceptance suite: fourteen numbered checks, one printed verdict line each.

Each test exercises one end-to-end promise of the library at its stated
tolerance and prints ``[PASS]``/``[FAIL] criterion N: detail`` to the real
stdout so the verdicts survive pytest's capture. The citation check (13)
is conditional on ``UFG_CORA_DIR`` and reports ``[SKIP]`` when unset.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from conftest import path_graph
from ufg.datasets import (
    BinaryFeatures,
    GaussianFeatures,
    cycles_and_stars,
    generate_sbm,
    load_citation,
    random_er_graph,
)
from ufg.experiments import (
    ExperimentConfig,
    bench_transform,
    denoise_signal,
    train_graph_classifier,
    train_node_classifier,
)
from ufg.filters import haar_filter_bank
from ufg.graphs import (
    eigendecompose,
    gcn_norm_adjacency,
    lambda_max,
    normalized_laplacian,
)
from ufg.nn import (
    activation_signature,
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
    ufg_pool_forward,
)
from ufg.perturb import PerturbationSpec, perturb
from ufg.shrinkage import (
    NONZERO_TOL,
    ThresholdConfig,
    compression_ratio,
    count_nonzero,
    shrink_stack,
)
from ufg.transform import (
    FrameletSystem,
    TransformSettings,
    block_energies,
    build_operators,
    decompose,
    reconstruct,
)

RECON_TOL = 1e-10
ENERGY_TOL = 1e-10
TIGHTNESS_TOL = 1e-6
PARTITION_TOL = 1e-12
CASCADE_TOL = 1e-9
GRAD_TOL = 1e-5
POOL_TOL = 1e-8


@pytest.fixture
def report(capsys):
    """Print one verdict line per criterion on the real stdout, then assert."""

    def _report(num, passed, detail, status=None):
        tag = status or ("PASS" if passed else "FAIL")
        with capsys.disabled():
            print(f"[{tag}] criterion {num}: {detail}", flush=True)
        if status is None:
            assert passed, f"criterion {num}: {detail}"

    return _report


@pytest.fixture(scope="module")
def corpus():
    """Twenty exact-mode cases: N in [10, 200], dilation 2, levels 1-3."""
    rng = np.random.default_rng(101)
    sizes = [10, *rng.integers(10, 201, size=18).tolist(), 200]
    t0 = time.perf_counter()
    cases = []
    for i, n in enumerate(sizes):
        graph = random_er_graph(int(n), avg_degree=4.0, rng=rng)
        lap = normalized_laplacian(graph)
        spectrum = eigendecompose(lap)
        lam = float(spectrum.values[-1]) if spectrum.values.size else 0.0
        system = FrameletSystem(
            haar_filter_bank(),
            TransformSettings(dilation=2.0, levels=1 + i % 3, mode="exact"),
            lam,
        )
        op = build_operators(system, lap, spectrum)
        cases.append(
            {"lap": lap, "spectrum": spectrum, "system": system, "op": op,
             "X": rng.normal(size=(int(n), 2))}
        )
    return {"cases": cases, "build_seconds": time.perf_counter() - t0}


def test_criterion_01_exact_reconstruction(corpus, report):
    t0 = time.perf_counter()
    worst = 0.0
    for case in corpus["cases"]:
        X = case["X"]
        err = np.linalg.norm(reconstruct(case["op"], decompose(case["op"], X)) - X)
        worst = max(worst, err / np.linalg.norm(X))
    elapsed = corpus["build_seconds"] + time.perf_counter() - t0
    ok = worst <= RECON_TOL and elapsed < 30.0
    report(
        1, ok,
        f"exact round trip on 20 graphs, worst rel err {worst:.2e} "
        f"(tol {RECON_TOL:g}), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_02_energy_conservation(corpus, report):
    worst = 0.0
    for case in corpus["cases"]:
        X = case["X"]
        total = sum(block_energies(decompose(case["op"], X)))
        worst = max(worst, abs(total - np.sum(X**2)) / np.sum(X**2))
    ok = worst <= ENERGY_TOL
    report(
        2, ok,
        f"coefficient energy matches signal energy, worst rel err "
        f"{worst:.2e} (tol {ENERGY_TOL:g})",
    )


def test_criterion_03_chebyshev_tightness_convergence(report):
    graph = random_er_graph(50, avg_degree=6.0, rng=np.random.default_rng(3))
    lap = normalized_laplacian(graph)
    lam = lambda_max(lap)
    errors = {}
    for t in (8, 16):
        system = FrameletSystem(
            haar_filter_bank(), TransformSettings(levels=2, degree=t, mode="chebyshev"), lam
        )
        op = build_operators(system, lap)
        w = decompose(op, np.eye(lap.num_rows)).reshape(op.num_rows, lap.num_rows)
        errors[t] = float(np.max(np.abs(w.T @ w - np.eye(lap.num_rows))))
    ok = errors[16] <= TIGHTNESS_TOL and errors[8] > errors[16]
    report(
        3, ok,
        f"stacked-operator tightness error {errors[16]:.2e} at degree 16 "
        f"(tol {TIGHTNESS_TOL:g}), {errors[8]:.2e} at degree 8",
    )


def test_criterion_04_filter_partition_of_unity(report):
    grid = np.linspace(0.0, 2.0 * np.pi, 1001)
    residual = float(np.max(np.abs(haar_filter_bank().partition_residual(grid))))
    ok = residual <= PARTITION_TOL
    report(
        4, ok,
        f"filter partition of unity, max residual {residual:.2e} on 1001 "
        f"grid points (tol {PARTITION_TOL:g})",
    )


def test_criterion_05_cascade_energy_identity(corpus, report):
    worst = 0.0
    for case in corpus["cases"]:
        system, X = case["system"], case["X"]
        prev_low = X
        for j in range(1, system.settings.levels + 1):
            settings = dataclasses.replace(system.settings, levels=j)
            sub = dataclasses.replace(system, settings=settings)
            op_j = build_operators(sub, case["lap"], case["spectrum"])
            c = decompose(op_j, X)
            low = c[0]
            detail = sum(
                float(np.sum(c[op_j.block_index.index((r, j))] ** 2))
                for r in range(1, system.num_high + 1)
            )
            lhs = float(np.sum(prev_low**2))
            rhs = float(np.sum(low**2)) + detail
            worst = max(worst, abs(lhs - rhs) / lhs)
            prev_low = low
    ok = worst <= CASCADE_TOL
    report(
        5, ok,
        f"per-level energy split identity, worst rel err {worst:.2e} "
        f"(tol {CASCADE_TOL:g})",
    )


def _conv_fd(op, X, labels, act, rng, fd_seed):
    params = init_params(X.shape[1], int(labels.max()) + 1, op.num_rows, rng)
    y, cache = ufg_conv_forward(params, op, X, act)
    _, dlogits = softmax_cross_entropy(y, labels)
    grads, _ = ufg_conv_backward(cache, dlogits)
    frozen = cache.get("thresholds")

    def loss_fn(p):
        y2, c2 = ufg_conv_forward(p, op, X, act, frozen_thresholds=frozen)
        val, _ = softmax_cross_entropy(y2, labels)
        return val, activation_signature(c2)

    return gradient_check(loss_fn, params, grads, max_coords=40, seed=fd_seed)


def _gcn_fd(graph, X, labels, rng, fd_seed):
    norm_adj = gcn_norm_adjacency(graph)
    W = rng.normal(size=(X.shape[1], int(labels.max()) + 1))
    y, cache = gcn_conv_forward(W, norm_adj, X)
    _, dlogits = softmax_cross_entropy(y, labels)
    _, dW = gcn_conv_backward(cache, dlogits)

    def loss_fn(p):
        y2, _ = gcn_conv_forward(p["W"], norm_adj, X)
        val, _ = softmax_cross_entropy(y2, labels)
        return val, None

    return gradient_check(loss_fn, {"W": W}, {"W": dW}, max_coords=40, seed=fd_seed)


def _head_fd(rng, fd_seed):
    Xh = rng.normal(size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    params = mlp_init(4, 5, 3, rng)
    logits, cache = mlp_forward(params, Xh)
    _, dlogits = softmax_cross_entropy(logits, labels)
    grads, _ = mlp_backward(cache, dlogits)

    def loss_fn(p):
        logits2, c2 = mlp_forward(p, Xh)
        val, _ = softmax_cross_entropy(logits2, labels)
        return val, activation_signature(c2)

    return gradient_check(loss_fn, params, grads, max_coords=40, seed=fd_seed)


def test_criterion_06_gradient_fidelity(report):
    worst = {"conv-relu": 0.0, "conv-shrink": 0.0, "gcn": 0.0, "head": 0.0}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        graph = random_er_graph(12, avg_degree=3.0, rng=rng)
        lap = normalized_laplacian(graph)
        spectrum = eigendecompose(lap)
        lam = float(spectrum.values[-1]) if spectrum.values.size else 0.0
        system = FrameletSystem(
            haar_filter_bank(), TransformSettings(levels=2, mode="exact"), lam
        )
        op = build_operators(system, lap, spectrum)
        X = rng.normal(size=(12, 3))
        labels = rng.integers(0, 2, size=12)
        checks = {
            "conv-relu": _conv_fd(op, X, labels, "relu", rng, seed),
            "conv-shrink": _conv_fd(
                op, X, labels,
                ThresholdConfig(1.0, "energy_scaled"),
                rng, seed,
            ),
            "gcn": _gcn_fd(graph, X, labels, rng, seed),
            "head": _head_fd(rng, seed),
        }
        for name, (max_rel, checked, _) in checks.items():
            assert checked > 0, f"{name} seed {seed}: every coordinate excluded"
            worst[name] = max(worst[name], max_rel)
    ok = all(v <= GRAD_TOL for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(
        6, ok,
        f"finite-difference gradients over 10 seeds: {detail} "
        f"(tol {GRAD_TOL:g})",
    )


def test_criterion_07_spectrum_pool_conservation(corpus, report):
    worst = 0.0
    for case in corpus["cases"]:
        X = case["X"]
        pooled, _ = ufg_pool_forward(case["op"], X, "spectrum")
        worst = max(
            worst,
            abs(float(pooled.sum()) - float(np.sum(X**2))) / float(np.sum(X**2)),
        )
    ok = worst <= POOL_TOL
    report(
        7, ok,
        f"spectrum pooling conserves total energy, worst rel err "
        f"{worst:.2e} on 20 cases (tol {POOL_TOL:g})",
    )


def test_criterion_08_denoising_efficacy(report):
    t0 = time.perf_counter()
    n = 200
    graph = path_graph(n)
    lap = normalized_laplacian(graph)
    spectrum = eigendecompose(lap)
    system = FrameletSystem(
        haar_filter_bank(),
        TransformSettings(levels=2, mode="exact"),
        float(spectrum.values[-1]),
    )
    op = build_operators(system, lap, spectrum)
    truth = np.sin(2.0 * np.pi * 3.0 * np.arange(n) / n)
    noise_std = 0.5 * np.sqrt(np.mean(truth**2))
    sigmas = (0.5, 1.0, 2.0, 4.0)
    noisy_mses, mses = [], []  # mses[seed][k] is the MSE at sigmas[k]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = truth + noise_std * rng.normal(size=n)
        noisy_mses.append(float(np.mean((noisy - truth) ** 2)))
        mses.append(
            [denoise_signal(op, noisy, sigma=s, truth=truth)[1]["mse_denoised"]
             for s in sigmas]
        )
    noisy_mean = np.mean(noisy_mses)
    ratio = float(np.mean(np.min(mses, axis=1)) / noisy_mean)
    per_sigma = ", ".join(
        f"{s:g}: {m / noisy_mean:.3f}" for s, m in zip(sigmas, np.mean(mses, axis=0))
    )
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.5 and elapsed < 60.0
    report(
        8, ok,
        f"best-threshold denoising at {ratio:.3f}x the noisy MSE over 20 "
        f"seeds (limit 0.5x; mean ratio per sigma {per_sigma}), "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_09_compression_monotonicity(corpus, report):
    case = corpus["cases"][0]
    c = decompose(case["op"], case["X"])
    sigmas = (0.0, 0.5, 1.0, 2.0, 4.0, np.inf)
    ratios = [
        compression_ratio(c, shrink_stack(c, ThresholdConfig(s, "global")))
        for s in sigmas
    ]
    monotone = all(a >= b for a, b in zip(ratios, ratios[1:]))
    lp_nnz = int(np.sum(np.abs(c[0]) > NONZERO_TOL))
    endpoint = lp_nnz / count_nonzero(c)
    ok = monotone and ratios[0] == 1.0 and ratios[-1] == endpoint
    report(
        9, ok,
        f"compression ratio nonincreasing over sigma grid "
        f"{[round(r, 3) for r in ratios]}, endpoints exact",
    )


def test_criterion_10_node_classification(report):
    t0 = time.perf_counter()
    data = generate_sbm(
        [100, 100, 100], 0.1, 0.01, GaussianFeatures(16, noise_std=0.3), seed=0
    )
    relu = train_node_classifier(data, ExperimentConfig())
    shrink = train_node_classifier(
        data, ExperimentConfig(activation="shrinkage", sigma=1.0)
    )
    gap = abs(relu.mean - shrink.mean)
    elapsed = time.perf_counter() - t0
    ok = relu.mean >= 0.90 and gap <= 0.03 and elapsed < 300.0
    report(
        10, ok,
        f"block-model accuracy relu {relu.mean:.3f} (floor 0.90), shrinkage "
        f"{shrink.mean:.3f}, gap {gap:.3f} (limit 0.03), {elapsed:.0f}s "
        f"(limit 300s)",
    )


def test_criterion_11_shrinkage_robustness_under_feature_noise(report):
    data = generate_sbm(
        [100, 100, 100], 0.1, 0.01, BinaryFeatures(dim=96), seed=0
    )
    spec = PerturbationSpec(model="bernoulli_flip", value=2.0, seed=1)
    _, noisy_features = perturb(data.graph, data.features, spec)
    noisy = dataclasses.replace(data, features=noisy_features)
    relu = train_node_classifier(noisy, ExperimentConfig())
    shrink = train_node_classifier(
        noisy, ExperimentConfig(activation="shrinkage", sigma=1.0)
    )
    ok = shrink.mean >= relu.mean - 0.01
    report(
        11, ok,
        f"under heavy feature flips shrinkage {shrink.mean:.3f} vs relu "
        f"{relu.mean:.3f} (allowed deficit 0.01)",
    )


def test_criterion_12_graph_classification_pooling(report):
    t0 = time.perf_counter()
    samples = cycles_and_stars(100, (10, 30), seed=0)
    means = {}
    for mode in ("sum", "spectrum", "mean"):
        cfg = ExperimentConfig(task="graph", pool_mode=mode)
        means[mode] = train_graph_classifier(samples, cfg).mean
    elapsed = time.perf_counter() - t0
    ok = (
        means["sum"] >= 0.95
        and means["spectrum"] >= 0.95
        and means["sum"] >= means["mean"] - 0.02
        and means["spectrum"] >= means["mean"] - 0.02
    )
    report(
        12, ok,
        f"cycles-vs-stars accuracy sum {means['sum']:.3f}, spectrum "
        f"{means['spectrum']:.3f} (floor 0.95), mean-pool baseline "
        f"{means['mean']:.3f}, {elapsed:.0f}s",
    )


def test_criterion_13_citation_benchmark(report):
    directory = os.environ.get("UFG_CORA_DIR", "").strip()
    if not directory:
        report(
            13, True,
            "citation benchmark skipped; set UFG_CORA_DIR to a dataset "
            "directory in the documented text format to enable",
            status="SKIP",
        )
        pytest.skip("UFG_CORA_DIR not set")
    data = load_citation(directory)
    base = ExperimentConfig(mode="chebyshev", degree=16, seeds=(0, 1, 2))
    relu = train_node_classifier(data, base)
    shrink = train_node_classifier(
        data, dataclasses.replace(base, activation="shrinkage", sigma=1.0)
    )
    comp = shrink.extra["compression_ratio"]
    ok = relu.mean >= 0.78 and 0.30 <= comp <= 0.65
    report(
        13, ok,
        f"citation accuracy {relu.mean:.3f} (floor 0.78), shrinkage "
        f"compression {comp:.3f} (band [0.30, 0.65])",
    )


def test_criterion_14_benchmark_scaling(report):
    t0 = time.perf_counter()
    sizes = [1000, 2000, 4000, 8000]
    single = bench_transform(sizes, repetitions=3, levels=1, seed=0)
    double = bench_transform(sizes, repetitions=3, levels=2, seed=0)
    completed = all(r["status"] == "ok" for r in single + double)
    factors = [
        d["transform_mean_s"] / s["transform_mean_s"]
        for s, d in zip(single, double)
        if s["status"] == "ok" and d["status"] == "ok"
    ]
    factor = float(np.median(factors)) if factors else float("nan")
    elapsed = time.perf_counter() - t0
    in_band = 1.2 <= factor <= 3.0
    ok = completed and np.isfinite(factor) and factor > 0
    report(
        14, ok,
        f"benchmark completes on 1k-8k nodes in {elapsed:.1f}s; doubling "
        f"levels scales transform time by {factor:.2f} "
        f"({'within' if in_band else 'outside'} advisory band 1.2-3.0)",
    )
