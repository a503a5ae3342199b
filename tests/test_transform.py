"""Transform blocks: round trips, tightness, path equivalence, block order."""

import dataclasses
import itertools
import json
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from conftest import path_graph
from ufg import graphs, transform
from ufg.datasets import GaussianFeatures, generate_sbm, random_er_graph
from ufg.filters import FilterBank, chebyshev_fit, haar_filter_bank
from ufg.graphs import build_graph, eigendecompose, lambda_max, normalized_laplacian
from ufg.sparse import SparseMatrix
from ufg.transform import (
    _recurrence_matrix,
    FrameletSystem,
    TransformSettings,
    block_energies,
    build_operators,
    compute_K,
    decompose,
    framelet_operator,
    reconstruct,
)

ROUND_TRIP_TOL = 1e-10
TIGHTNESS_TOL = 1e-6
PATH_TOL = 1e-8


def _explicit(op):
    """The stacked operator as a dense matrix: its image of the identity."""
    return _flat(decompose(op, np.eye(op.num_nodes)))


def _flat(c):
    """The ``(B N) x d`` rows of the ``(B, N, d)`` coefficients ``c``."""
    return c.reshape(c.shape[0] * c.shape[1], c.shape[2])


def _exact_setup(n, avg_deg, levels, seed):
    g = random_er_graph(n, avg_deg, np.random.default_rng(seed))
    lap = normalized_laplacian(g)
    spec = eigendecompose(lap)
    lam = float(spec.values[-1]) if spec.values.size else 0.0
    system = FrameletSystem(haar_filter_bank(), TransformSettings(levels=levels), lam)
    return system, lap, spec


def test_compute_K_oracles():
    assert compute_K(2.0, 2.0) == 0
    assert compute_K(np.pi, 2.0) == 0  # boundary counts as in-bounds
    assert compute_K(10.0, 2.0) == 2
    assert compute_K(0.5, 2.0) == -2


def test_compute_K_rejects_bad_args():
    assert compute_K(0.0, 2.0) == 0  # an edgeless graph's DC-only spectrum
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="lambda_max must be nonnegative"):
            compute_K(bad, 2.0)
    with pytest.raises(ValueError, match="dilation"):
        compute_K(1.0, 1.0)


def test_block_index_order():
    system = FrameletSystem(haar_filter_bank(), TransformSettings(levels=3), 2.0)
    assert system.block_index() == ((0, 3), (1, 1), (1, 2), (1, 3))
    assert system.num_blocks == 4


def test_factor_scale():
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(dilation=2.0, levels=2), 2 * np.pi
    )
    assert system.K == 1
    assert system.factor_scale(1) == pytest.approx(0.5)
    assert system.factor_scale(2) == pytest.approx(1.0)


def test_zero_spectrum_gets_K_zero():
    system = FrameletSystem(haar_filter_bank(), lam_max=0.0)
    assert system.K == 0


def test_system_validation():
    bank = haar_filter_bank()
    with pytest.raises(ValueError, match="dilation"):
        FrameletSystem(bank, TransformSettings(dilation=1.0))
    with pytest.raises(ValueError, match="levels"):
        FrameletSystem(bank, TransformSettings(levels=0))
    with pytest.raises(ValueError, match="mode"):
        FrameletSystem(bank, TransformSettings(mode="lanczos"))
    with pytest.raises(ValueError, match="lam_max"):
        FrameletSystem(bank, lam_max=-2.0)


@pytest.mark.parametrize("lam_max", [np.nan, np.inf, -np.inf, -1.0])
def test_system_rejects_a_lam_max_that_sets_no_K(lam_max):
    with pytest.raises(ValueError, match="lam_max must be finite and nonnegative"):
        FrameletSystem(haar_filter_bank(), lam_max=lam_max)


def test_settings_check_the_top_argument_at_K_zero():
    # lam_max = 0 gives K = 0, the largest K of a normalized Laplacian; a
    # smaller spectrum's K < 0 raises the top filter argument d^(J-1-K) * 2,
    # which the system checks at its own K.
    settings = TransformSettings(1e150, 2, 8, "exact")
    with pytest.raises(ValueError, match=r"d\^\(J-1-K\) \* 2 at J = 3, K = 0$"):
        TransformSettings(1e200, 3, 8, "exact")
    with pytest.raises(ValueError, match=r"d\^\(J-1-K\) \* 2 at J = 2, K = -2$"):
        FrameletSystem(haar_filter_bank(), settings, 1e-300)
    with pytest.raises(ValueError, match="lam_max must be finite and nonnegative"):
        FrameletSystem(haar_filter_bank(), settings, np.nan)


@pytest.mark.parametrize("name", ["levels", "degree"])
def test_integer_settings_are_integers(name):
    for bad in (2.5, 2.0, "2", None, True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            TransformSettings(**{name: bad})
    value = getattr(TransformSettings(**{name: np.int64(3)}), name)
    assert type(value) is int and value == 3
    assert type(TransformSettings(dilation=np.int64(3)).dilation) is float
    # A fractional degree used to build an operator whose round trip was
    # off by 45%; it is refused before any graph is read.
    with pytest.raises(ValueError, match="degree must be an integer, got 16.5"):
        framelet_operator(random_er_graph(200, 6.0, 0),
                          TransformSettings(degree=16.5, mode="chebyshev"))


def test_replaced_system_derives_K_again():
    system = FrameletSystem(haar_filter_bank(), lam_max=1.5)
    assert system.K == -1
    assert dataclasses.replace(system, settings=TransformSettings(1.25)).K == -3
    assert dataclasses.replace(system, lam_max=2 * np.pi).K == 1


def _with_settings(system, **changes):
    """``system`` with the given settings changed."""
    settings = dataclasses.replace(system.settings, **changes)
    return dataclasses.replace(system, settings=settings)


def _is_normalizer(K, lam, dilation):
    """K is the smallest integer with lam <= d^K pi, or 0 when lam = 0."""
    if lam == 0:
        return K == 0
    return lam <= dilation**K * np.pi and dilation ** (K - 1) * np.pi < lam


@pytest.mark.parametrize("dilation", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_K_is_the_smallest_normalizer_of_lam_max(dilation):
    boundaries = [np.pi * dilation**k for k in range(-4, 3)]
    grid = [0.0, 1e-3, 0.5, 1.0, 1.5, np.pi / 2, 1.5840, 2.0, np.pi, 10.0,
            *boundaries, *np.nextafter(boundaries, np.inf)]
    for lam in grid:
        K = FrameletSystem(haar_filter_bank(), TransformSettings(dilation=dilation), lam).K
        assert _is_normalizer(K, lam, dilation), (lam, K)
    # framelet_operator's K is that of the graph's Lanczos bound.
    for graph in (build_graph(3, []), random_er_graph(40, 4.0, 1),
                  generate_sbm([100] * 3, 0.1, 0.01, seed=7).graph):
        op = framelet_operator(graph, TransformSettings(dilation=dilation, mode="chebyshev"))
        assert op.system.lam_max == graph.lanczos_bound
        assert _is_normalizer(op.system.K, graph.lanczos_bound, dilation)


@pytest.mark.parametrize(
    "dilation, levels, match",
    [
        (np.inf, 1, "finite"),
        (np.nan, 2, "exceed 1"),
        (1e308, 2, "overflows"),  # d * 2 overflows to inf
        (1e200, 3, "overflows"),  # d ** 2 raises OverflowError
    ],
)
def test_system_rejects_a_dilation_it_cannot_evaluate(dilation, levels, match):
    with pytest.raises(ValueError, match=match):
        TransformSettings(dilation=dilation, levels=levels)
    # The largest that still evaluates: its top argument d^(J-1-K) * 2 is finite.
    assert TransformSettings(dilation=1e200, levels=2).dilation == 1e200


def test_make_system_builds_the_system_of_its_keywords():
    # The two keyword calls of the benchmark workloads, one per backend.
    bank = haar_filter_bank()
    cases = [
        (dict(dilation=2.0, levels=2, mode="exact"), np.float64(1.97)),
        (dict(levels=2, degree=16, mode="chebyshev"), 1.5),
    ]
    for settings_, lam in cases:
        system = transform.make_system(bank, lam, **settings_)
        assert system == FrameletSystem(bank, TransformSettings(**settings_), float(lam))
        assert type(system.lam_max) is float
    assert transform.make_system(bank, 2) == FrameletSystem(bank)


@given(st.integers(6, 40), st.integers(1, 3), st.integers(0, 20))
@settings(max_examples=15)
def test_exact_round_trip_and_parseval(n, levels, seed):
    system, lap, spec = _exact_setup(n, 3.0, levels, seed)
    op = build_operators(system, lap, spec)
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(n, 2))
    c = decompose(op, X)
    back = reconstruct(op, c)
    scale = np.max(np.abs(X))
    assert np.max(np.abs(back - X)) / scale <= ROUND_TRIP_TOL
    energy = sum(block_energies(c))
    total = float(np.sum(X**2))
    assert abs(energy - total) / total <= ROUND_TRIP_TOL


def test_cascade_energy_per_level(small_system, small_laplacian, small_spectrum):
    # Truncating the system at each level must still conserve energy.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(small_laplacian.num_rows, 3))
    total = float(np.sum(X**2))
    for j in range(1, small_system.settings.levels + 1):
        truncated = _with_settings(small_system, levels=j)
        op = build_operators(truncated, small_laplacian, small_spectrum)
        c = decompose(op, X)
        energy = sum(block_energies(c))
        assert abs(energy - total) / total <= 1e-9


def test_stacked_operator_tightness_exact(small_operator):
    w = _explicit(small_operator)
    n = small_operator.num_nodes
    assert w.shape == (small_operator.num_rows, n)
    np.testing.assert_allclose(w.T @ w, np.eye(n), atol=1e-10)


def test_chebyshev_tightness_improves_with_degree():
    g = random_er_graph(50, 4.0, np.random.default_rng(5))
    lap = normalized_laplacian(g)
    lam = lambda_max(lap)
    errs = {}
    for t in (8, 16):
        system = FrameletSystem(
            haar_filter_bank(), TransformSettings(degree=t, mode="chebyshev"), lam
        )
        w = _explicit(build_operators(system, lap))
        errs[t] = np.max(np.abs(w.T @ w - np.eye(50)))
    assert errs[16] <= TIGHTNESS_TOL
    assert errs[8] > errs[16]


def test_path_equivalence_exact_vs_chebyshev(small_laplacian, small_spectrum):
    lam = float(small_spectrum.values[-1])
    exact_sys = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=2, mode="exact"), lam
    )
    cheb_sys = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=2, degree=16, mode="chebyshev"), lam
    )
    op_e = build_operators(exact_sys, small_laplacian, small_spectrum)
    op_c = build_operators(cheb_sys, small_laplacian)
    np.testing.assert_allclose(_explicit(op_e), _explicit(op_c), atol=PATH_TOL)


def _linear_bank():
    """Linear framelet masks (Dong 2017): two high passes."""
    return FilterBank(
        low_pass=lambda xi: np.cos(xi / 2.0) ** 2,
        high_passes=(
            lambda xi: np.sin(xi) / np.sqrt(2.0),
            lambda xi: np.sin(xi / 2.0) ** 2,
        ),
    )


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("bank", ["haar", "linear"])
def test_one_recurrence_serves_every_block(
    small_laplacian, small_spectrum, monkeypatch, bank, levels
):
    t = 16
    filters = haar_filter_bank() if bank == "haar" else _linear_bank()
    lam = float(small_spectrum.values[-1])
    exact_sys = FrameletSystem(
        filters, TransformSettings(levels=levels, degree=t, mode="exact"), lam
    )
    op_e = build_operators(exact_sys, small_laplacian, small_spectrum)
    cheb_sys = _with_settings(exact_sys, mode="chebyshev")
    op_c = build_operators(cheb_sys, small_laplacian)
    np.testing.assert_allclose(_explicit(op_e), _explicit(op_c), atol=PATH_TOL)

    calls = []
    kernel = transform.csr_matvecs

    def counting(*args):
        calls.append(args[:3])
        kernel(*args)

    monkeypatch.setattr(transform, "csr_matvecs", counting)
    X = np.random.default_rng(2).normal(size=(small_laplacian.num_rows, 3))
    c = decompose(op_c, X)
    forward = len(calls)
    back = reconstruct(op_c, c)
    # One recurrence in each direction, whatever the numbers of levels and
    # high passes, of the chopped length: at most the fitted t + 4 (J - 1).
    t_J = cheb_sys.recurrence_degree
    assert t_J == cheb_sys.chebyshev_coeffs.shape[1] - 1 <= t + 4 * (levels - 1)
    if (bank, levels) == ("haar", 2):
        assert (cheb_sys.K, t_J) == (0, 15)
    assert (forward, len(calls) - forward) == (t_J, t_J)
    assert np.max(np.abs(back - X)) / np.max(np.abs(X)) <= TIGHTNESS_TOL


# Settings and their term counts on a K = 0 graph: even (the default), odd,
# odd with a last coefficient that is not round-off, and a single term.
TERM_PARITIES = [
    (TransformSettings(mode="chebyshev"), 16),
    (TransformSettings(levels=3, mode="chebyshev"), 21),
    (TransformSettings(levels=1, degree=2, mode="chebyshev"), 3),
    (TransformSettings(levels=1, degree=0, mode="chebyshev"), 1),
]


def _fill_empty_with_nan(monkeypatch):
    """Make every ``np.empty`` array start as NaN until ``monkeypatch.undo``:
    an output that is read before it is written then shows."""
    real_empty = np.empty

    def nan_empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)


def _parity_operator(settings, terms):
    """A Chebyshev operator on a 60-node K = 0 graph with ``terms`` terms."""
    op = framelet_operator(random_er_graph(60, 4.0, np.random.default_rng(0)), settings)
    assert op.system.K == 0 and op.system.chebyshev_coeffs.shape[1] == terms
    return op


@pytest.mark.parametrize("settings, terms", TERM_PARITIES)
def test_recurrences_are_the_dense_chebyshev_sums_at_either_parity(
    monkeypatch, settings, terms
):
    # Block b of decompose is sum_k c_{b,k} T_k(S/2) X and reconstruct sums
    # those polynomials' products with the blocks, from dense T_k. Terms go
    # into the blocks two per BLAS call, and a lone last term alone, so both
    # parities end differently. The first call writes the output without
    # reading it: fresh memory may hold anything, here NaN.
    op = _parity_operator(settings, terms)
    S = op.recurrence.csr.toarray()
    T = [np.eye(len(S)), S / 2]
    while len(T) < terms:
        T.append(S @ T[-1] - T[-2])
    polys = [sum(a * t for a, t in zip(row, T)) for row in op.system.chebyshev_coeffs]
    rng = np.random.default_rng(terms)
    X = rng.normal(size=(op.num_nodes, 5))
    c = rng.normal(size=(op.num_blocks, op.num_nodes, 5))
    _fill_empty_with_nan(monkeypatch)
    got = decompose(op, X), reconstruct(op, c)
    monkeypatch.undo()
    want = np.stack([p @ X for p in polys]), sum(p @ block for p, block in zip(polys, c))
    for g, w in zip(got, want):
        assert np.isfinite(g).all()
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("settings, terms", TERM_PARITIES)
def test_each_blas_call_folds_two_terms_into_the_blocks(monkeypatch, settings, terms):
    # Per direction: recurrence_degree sparse products, one dgemm per pair of
    # terms and one for a lone last term. The adjoint starts an odd count's
    # lone top term with one dgemv instead.
    op = _parity_operator(settings, terms)
    assert op.system.recurrence_degree == terms - 1
    calls = []
    for name in ("csr_matvecs", "dgemm", "dgemv"):
        def counting(*args, name=name, kernel=getattr(transform, name), **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(transform, name, counting)
    c = decompose(op, np.random.default_rng(1).normal(size=(op.num_nodes, 3)))
    forward = [calls.count(name) for name in ("csr_matvecs", "dgemm", "dgemv")]
    calls.clear()
    reconstruct(op, c)
    adjoint = [calls.count(name) for name in ("csr_matvecs", "dgemm", "dgemv")]
    assert forward == [terms - 1, (terms + 1) // 2, 0]
    assert adjoint == [terms - 1, terms // 2, terms % 2]


@pytest.mark.parametrize("t", [8, 16])
@pytest.mark.parametrize("K", [0, -1])
@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("dilation", [1.5, 2.0])
@pytest.mark.parametrize("bank", ["haar", "linear"])
def test_direct_block_fit_never_less_accurate_than_factor_cascade(
    bank, dilation, levels, K, t
):
    # The reference fits each dilated mask factor at degree t and chains the
    # fitted factors per block, as a per-level cascade applies them.
    # lam_max = pi d^K is the largest top eigenvalue that gives this K.
    system = FrameletSystem(
        haar_filter_bank() if bank == "haar" else _linear_bank(),
        TransformSettings(dilation=dilation, levels=levels, degree=t, mode="chebyshev"),
        np.pi * dilation**K,
    )
    assert system.K == K
    grid = np.linspace(0.0, 2.0, 2001)
    x = grid - 1.0
    factors = [
        [chebval(x, chebyshev_fit(lambda lam: g(system.factor_scale(j) * lam), t))
         for g in (system.bank.low_pass, *system.bank.high_passes)]
        for j in range(1, levels + 1)
    ]
    chain = [np.ones_like(grid)]
    for level in factors:
        chain.append(chain[-1] * level[0])
    cascade = np.array([chain[levels]] + [
        factors[j - 1][r] * chain[j - 1]
        for r in range(1, system.num_high + 1)
        for j in range(1, levels + 1)
    ])
    gains = system.block_gains(grid)
    cascade_err = np.max(np.abs(cascade - gains), axis=1)
    direct_err = np.max(np.abs(chebval(x, system.chebyshev_coeffs.T) - gains), axis=1)
    assert np.all(direct_err <= np.maximum(cascade_err, 2e-14))


@pytest.mark.parametrize("t", [8, 16])
@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("K", [0, -1, -2])
@pytest.mark.parametrize("dilation", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("bank", ["haar", "linear"])
def test_chop_moves_no_block_by_more_than_chop_tol(bank, dilation, K, levels, t):
    system = FrameletSystem(
        haar_filter_bank() if bank == "haar" else _linear_bank(),
        TransformSettings(dilation=dilation, levels=levels, degree=t, mode="chebyshev"),
        np.pi * dilation**K,
    )
    assert system.K == K
    full = chebyshev_fit(system.block_gains, t + 4 * (levels - 1))
    chopped = system.chebyshev_coeffs
    # The chop only drops trailing columns, never all of them.
    assert 1 <= chopped.shape[1] <= full.shape[1]
    np.testing.assert_array_equal(chopped, full[:, : chopped.shape[1]])
    x = np.linspace(0.0, 2.0, 2001) - 1.0
    assert np.max(np.abs(chebval(x, chopped.T) - chebval(x, full.T))) <= transform.CHOP_TOL


@pytest.mark.parametrize("lam, K", [(2.0, 0), (1.5, -1)])
def test_chebyshev_provenance_measures_the_fit(small_laplacian, lam, K):
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=2, degree=16, mode="chebyshev"), lam
    )
    assert system.K == K
    prov = build_operators(system, small_laplacian).provenance
    t_J = prov["recurrence_degree"]
    assert t_J == system.recurrence_degree <= 16 + 4
    assert system.chebyshev_coeffs.shape == (system.num_blocks, t_J + 1)
    if K == 0:
        assert t_J == 15
    # sum_b g_b^2 = 1 by partition of unity; the residual measures the fits.
    assert 0.0 <= prov["fit_residual"] <= 1e-12
    assert prov["fit_residual"] is system.fit_residual


@given(st.integers(0, 6), st.integers(1, 3), st.integers(0, 5))
def test_chebyshev_backend_applies_the_fitted_polynomials(degree, levels, seed):
    # Reference: every block's fitted polynomial evaluated in the eigenbasis.
    lap = normalized_laplacian(random_er_graph(15, 3.0, np.random.default_rng(seed)))
    spec = eigendecompose(lap)
    system = FrameletSystem(
        _linear_bank(),
        TransformSettings(levels=levels, degree=degree, mode="chebyshev"),
        float(spec.values[-1]),
    )
    coeffs = system.chebyshev_coeffs
    assert coeffs.shape == (system.num_blocks, system.recurrence_degree + 1)
    reference = np.concatenate(
        [spec.matrix_function(chebval(spec.values - 1.0, cf)) for cf in coeffs]
    )
    op = build_operators(system, lap)
    w = _explicit(op)
    np.testing.assert_allclose(w, reference, atol=1e-10)
    c = decompose(op, np.random.default_rng(seed).normal(size=(15, 2)))
    np.testing.assert_allclose(reconstruct(op, c), w.T @ _flat(c), atol=1e-12)


def test_matrix_free_matches_materialized(small_laplacian):
    lam = lambda_max(small_laplacian)
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=3, mode="chebyshev"), lam
    )
    op = build_operators(system, small_laplacian)
    w = _explicit(op)
    rng = np.random.default_rng(9)
    X = rng.normal(size=(small_laplacian.num_rows, 4))
    c_free = decompose(op, X)
    np.testing.assert_allclose(_flat(c_free), w @ X, atol=1e-12)
    back = reconstruct(op, c_free)
    # The matrix-free reconstruct is the transpose of the matrix-free decompose.
    np.testing.assert_allclose(back, w.T @ _flat(c_free), atol=1e-12)
    assert np.max(np.abs(back - X)) <= 1e-8  # tight-frame round trip


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("levels", [1, 3])
def test_chebyshev_backend_reads_any_layout_and_never_writes_inputs(
    small_laplacian, small_spectrum, levels
):
    # The recurrences add into their work arrays in place, with SciPy's
    # sparse kernel and BLAS, through views that alias only C-contiguous
    # buffers: such a view of any other buffer is a copy, and updates made
    # to it are lost. Inputs of any layout are read into those arrays
    # first, so every layout gives bitwise the contiguous result and no
    # input is written. At one level, degrees 0 and 1 run no step or one.
    n = small_laplacian.num_rows
    for degree, width in itertools.product((0, 1, 16), (3, 0)):
        system = FrameletSystem(
            haar_filter_bank(),
            TransformSettings(levels=levels, degree=degree, mode="chebyshev"),
            2.0,
        )
        if levels == 1 and degree <= 1:
            assert system.recurrence_degree == degree
        op = build_operators(system, small_laplacian)
        wide = np.random.default_rng(levels + degree).normal(size=(n, 2 * width))
        X = np.ascontiguousarray(wide[:, ::2])
        reference = np.concatenate([
            small_spectrum.matrix_function(chebval(small_spectrum.values - 1.0, cf))
            for cf in system.chebyshev_coeffs
        ])
        ref = decompose(op, X)
        back = reconstruct(op, ref)
        np.testing.assert_allclose(_flat(ref), reference @ X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            back, reference.T @ _flat(ref), rtol=0, atol=1e-12
        )
        # The contiguous input itself, Fortran order (the layout of A.T
        # for a C-ordered A), a strided view and a read-only array.
        for layout in (X, np.asfortranarray(X), wide[:, ::2], _read_only(X)):
            kept = layout.copy()
            c = decompose(op, layout)
            np.testing.assert_array_equal(c, ref)
            np.testing.assert_array_equal(layout, kept)
        wide_data = np.zeros(ref.shape[:2] + (2 * width,))
        wide_data[..., ::2] = ref
        for data in (ref, np.asfortranarray(ref), wide_data[..., ::2], _read_only(ref),
                     ref.transpose(1, 0, 2).copy().transpose(1, 0, 2)):
            kept = data.copy()
            got = reconstruct(op, data)
            np.testing.assert_array_equal(got, back)
            np.testing.assert_array_equal(data, kept)
        if degree == 16:
            assert np.max(np.abs(back - X), initial=0.0) <= TIGHTNESS_TOL


def _kernel_call(S, values, flat, width):
    """One step's sparse kernel call, as the recurrences make it: add the
    product of the matrix with ``S``'s pattern and ``values`` by the first
    flat work array into the second."""
    transform.csr_matvecs(*S.shape, width, S.indptr, S.indices, values, *flat)


@pytest.mark.parametrize("index", [np.int32, np.int64])
def test_spmm_add_is_the_sparse_product_added_in_place(index):
    # The recurrences' one sparse kernel, on the operands they check once:
    # into zeros it is bitwise ``S @ X`` (SciPy's ``@`` zero-fills its
    # output and runs the same kernel), and into a nonzero ``y`` it adds to
    # what is there, through the flat views. The value arrays of ``-S``,
    # ``S`` and ``S / 2`` scale the product by -1, 1 and 1/2.
    s = _recurrence_matrix(random_er_graph(300, 6.0, 21).laplacian).csr.copy()
    s.indptr = s.indptr.astype(index)
    s.indices = s.indices.astype(index)
    rng = np.random.default_rng(22)
    for width in (0, 1, 4, 16):
        X = rng.normal(size=(300, width))
        kept = X.copy()
        product = s @ X
        y = np.zeros((300, width))
        S, values, flat = transform._kernel_operands(SparseMatrix(s), (X, y))
        assert S is s and values[1] is s.data
        for v, expected in zip(values, (-product, product, 0.5 * product)):
            y[...] = 0.0
            _kernel_call(S, v, flat, width)
            np.testing.assert_array_equal(y, expected)
        y0 = rng.normal(size=(300, width))
        y[...] = y0
        _kernel_call(S, values[1], flat, width)
        expected = y0 + product
        assert np.max(np.abs(y - expected), initial=0.0) <= 1e-15 * np.max(
            np.abs(expected), initial=0.0
        )
        np.testing.assert_array_equal(X, kept)


def test_spmm_add_rejects_operands_it_cannot_update_in_place():
    # The kernel trusts the sizes it is given, and the flat view of an
    # array of any other layout is a copy it would update instead, so each
    # recurrence checks every operand once, before its first product. Both
    # work arrays are read and written, so both must be C-contiguous.
    s = _recurrence_matrix(random_er_graph(30, 4.0, 3).laplacian).csr
    X = np.ones((30, 4))
    good = np.zeros((30, 4))

    def values(data):
        t = s.copy()
        t.data = data
        return t

    bad = {
        "values length": (values(s.data[:-1]), X, good),
        "values dtype": (values(s.data.astype(np.float32)), X, good),
        "x rows": (s, np.ones((29, 4)), good),
        "x dtype": (s, X.astype(np.float32), good),
        "x layout": (s, np.asfortranarray(X), good),
        "y shape": (s, X, np.zeros((30, 3))),
        "y rows": (s, X, np.zeros((29, 4))),
        "y layout": (s, X, np.zeros((30, 4), order="F")),
        "y strided": (s, X, np.zeros((30, 8))[:, ::2]),
        "y read-only": (s, X, _read_only(good)),
        "x 1-d": (s, np.ones(30), np.zeros(30)),
    }
    for name, (matrix, x, y) in bad.items():
        kept = y.copy()
        with pytest.raises(ValueError, match="Chebyshev recurrence"):
            transform._kernel_operands(SparseMatrix(matrix), (x, y))
        np.testing.assert_array_equal(y, kept, err_msg=name)
    S, vals, flat = transform._kernel_operands(SparseMatrix(s), (X, good))
    _kernel_call(S, vals[1], flat, 4)
    np.testing.assert_array_equal(good, s @ X)


@pytest.fixture(scope="module")
def split_graph():
    """A graph whose Chebyshev products split at d >= 16."""
    return random_er_graph(5001, 8.0, 31)


@pytest.fixture(scope="module")
def split_operator(split_graph):
    """A Chebyshev operator on a graph whose products split at d >= 16."""
    op = framelet_operator(split_graph, TransformSettings(mode="chebyshev"))
    assert op.recurrence.nnz * 16 > transform.SPLIT_WORK
    return op


def _one_group(op, X):
    """The one-group recurrences of ``op`` on ``X``: the ``(B, N, d)``
    coefficients and the reconstruction of them, what every CPU count must
    reproduce bitwise."""
    steps = np.ascontiguousarray(op.system.chebyshev_coeffs.T)
    data = transform._decompose_columns(op.recurrence, steps, X)
    return data, transform._reconstruct_columns(op.recurrence, steps, data)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8])
def test_column_groups_are_min_of_cpus_and_eighths_when_two_fit(monkeypatch, cpus):
    # Above SPLIT_WORK a product of d columns splits into min(CPUs, d // 8)
    # contiguous groups when that is at least 2; narrow signals, d < 8 too,
    # and small products run as one group.
    monkeypatch.setattr(transform, "_usable_cpus", lambda: cpus)
    for d in range(70):
        assert transform._column_groups(transform.SPLIT_WORK // 70, d) == [(0, d)]
        groups = transform._column_groups(transform.SPLIT_WORK, d)
        k = min(cpus, d // transform.GROUP_MIN_COLUMNS)
        assert len(groups) == max(k, 1)
        assert groups[0][0] == 0 and groups[-1][1] == d
        assert all(hi == lo for (_, hi), (lo, _) in zip(groups, groups[1:]))
        if len(groups) > 1:
            assert all(hi - lo >= transform.GROUP_MIN_COLUMNS for lo, hi in groups)
            assert all(lo % transform.GROUP_MIN_COLUMNS == 0 for lo, _ in groups)


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("d", [23, 32, 33])
def test_column_groups_are_bitwise_the_one_group_result(
    monkeypatch, split_operator, cpus, d
):
    # Above the crossover each column group runs its own recurrence, on a
    # thread of its own, and the groups' outputs are scattered into one
    # array: bitwise the one-group result, also with uneven groups (d = 23
    # and 33), through the operator and a restricted operator. At N = 5001
    # a group of 11 columns would end its flat vectors in a BLAS tail that
    # the one-group vectors do not have. Only the private helpers run off
    # the calling thread.
    op = split_operator
    n = op.num_nodes
    monkeypatch.setattr(transform, "_usable_cpus", lambda: cpus)
    groups = transform._column_groups(op.recurrence.nnz, d)
    assert len(groups) == min(cpus, d // 8) and groups[-1][1] == d
    X = np.random.default_rng(d).normal(size=(n, d))
    data, back = _one_group(op, X)

    widths, threads = [], set()
    for name in ("_decompose_columns", "_reconstruct_columns"):
        helper = getattr(transform, name)

        def spy(S, steps, signal, helper=helper):
            widths.append(signal.shape[-1])
            threads.add(threading.get_ident())
            return helper(S, steps, signal)

        monkeypatch.setattr(transform, name, spy)
    public = []
    for name in ("decompose", "reconstruct"):
        function = getattr(transform, name)

        def traced(*args, function=function, **kwargs):
            public.append(threading.get_ident())
            return function(*args, **kwargs)

        monkeypatch.setattr(transform, name, traced)

    c = transform.decompose(op, X)
    assert c.flags.c_contiguous and c.shape == (op.num_blocks, n, d)
    np.testing.assert_array_equal(c, data)
    np.testing.assert_array_equal(transform.reconstruct(op, c), back)
    assert sorted(widths) == sorted(2 * [hi - lo for lo, hi in groups])
    assert len(threads) > 1 and set(public) == {threading.get_ident()}

    rows = np.arange(0, n, 3)
    padded = np.zeros_like(X)
    padded[rows] = X[rows]
    data, back = _one_group(op, padded)
    restricted = op.restrict(rows)
    c = transform.decompose(restricted, X[rows])
    np.testing.assert_array_equal(c, data)
    np.testing.assert_array_equal(transform.reconstruct(restricted, c), back[rows])


@pytest.mark.parametrize("levels, degree", [(3, 16), (1, 2), (1, 0)])
def test_column_groups_are_bitwise_at_an_odd_term_count(
    monkeypatch, split_graph, levels, degree
):
    # An odd term count ends on a lone term, a product of its own in either
    # direction; the split stays bitwise, also when that term's coefficients
    # are not round-off (degree 2) or the only ones (degree 0).
    op = framelet_operator(
        split_graph, TransformSettings(levels=levels, degree=degree, mode="chebyshev")
    )
    assert op.system.chebyshev_coeffs.shape[1] % 2 == 1
    X = np.random.default_rng(degree).normal(size=(op.num_nodes, 17))
    data, back = _one_group(op, X)
    monkeypatch.setattr(transform, "_usable_cpus", lambda: 2)
    assert transform._column_groups(op.recurrence.nnz, 17) == [(0, 8), (8, 17)]
    np.testing.assert_array_equal(transform.decompose(op, X), data)
    np.testing.assert_array_equal(transform.reconstruct(op, data), back)


def test_benchmark_shims_are_the_operator_transforms(monkeypatch, split_operator):
    # The benchmark workloads call chebyshev_decompose(system, lap, X) and
    # chebyshev_reconstruct(system, lap, c) with a bare Laplacian. Each call
    # builds one operator, so one S, and applies it: bitwise the operator's
    # transforms, here split into two column groups.
    op = split_operator
    X = np.random.default_rng(32).normal(size=(op.num_nodes, 32))
    data, back = _one_group(op, X)
    monkeypatch.setattr(transform, "_usable_cpus", lambda: 2)
    assert len(transform._column_groups(op.recurrence.nnz, 32)) == 2
    built = []

    def counting(*args, build=transform.build_operators):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(transform, "build_operators", counting)
    c = transform.chebyshev_decompose(op.system, op.lap, np.asfortranarray(X))
    np.testing.assert_array_equal(c, data)
    np.testing.assert_array_equal(c, decompose(op, X))
    y = transform.chebyshev_reconstruct(op.system, op.lap, c)
    np.testing.assert_array_equal(y, back)
    np.testing.assert_array_equal(y, reconstruct(op, c))
    assert built == [(op.system, op.lap), (op.system, op.lap)]


def test_one_usable_cpu_or_a_small_product_makes_no_pool(monkeypatch, split_operator):
    # With one usable CPU, or below the crossover, both recurrences run the
    # one-group loop on the calling thread: no ThreadPoolExecutor is made.
    # A call that splits makes one, with a worker per group but the first,
    # and shuts it down, its threads joined, before it returns.
    made = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(transform, "ThreadPoolExecutor", Recording)
    op = split_operator
    X = np.random.default_rng(5).normal(size=(op.num_nodes, 32))
    data, back = _one_group(op, X)
    monkeypatch.setattr(transform, "_usable_cpus", lambda: 1)
    c = decompose(op, X)
    np.testing.assert_array_equal(c, data)
    np.testing.assert_array_equal(reconstruct(op, c), back)
    assert made == []

    monkeypatch.setattr(transform, "_usable_cpus", lambda: 2)
    small = framelet_operator(
        random_er_graph(300, 6.0, 8), TransformSettings(mode="chebyshev")
    )
    assert small.recurrence.nnz * 32 <= transform.SPLIT_WORK
    reconstruct(small, decompose(small, np.ones((300, 32))))
    narrow = np.ones((op.num_nodes, 15))
    reconstruct(op, decompose(op, narrow))
    assert made == []

    monkeypatch.setattr(transform, "_usable_cpus", lambda: 4)
    np.testing.assert_array_equal(decompose(op, X), data)
    assert len(made) == 1 and made[0]._max_workers == 3
    with pytest.raises(RuntimeError, match="shutdown"):
        made[0].submit(int)
    assert not any(t.name.startswith("ufg-columns") for t in threading.enumerate())


@pytest.mark.parametrize("name", ["_decompose_columns", "_reconstruct_columns"])
def test_a_worker_group_exception_reaches_the_caller(monkeypatch, split_operator, name):
    # The calling thread waits for every group, then raises a worker's
    # exception as its own.
    op = split_operator
    helper = getattr(transform, name)
    main = threading.get_ident()

    def failing(S, steps, signal):
        if threading.get_ident() != main:
            raise RuntimeError("worker group failed")
        return helper(S, steps, signal)

    monkeypatch.setattr(transform, "_usable_cpus", lambda: 2)
    X = np.ones((op.num_nodes, 32))
    monkeypatch.setattr(transform, name, failing)
    with pytest.raises(RuntimeError, match="worker group failed"):
        reconstruct(op, decompose(op, X))


def test_concurrent_callers_keep_their_results(monkeypatch, split_operator):
    # Callers on several threads at once, each splitting into more groups
    # than this host has CPUs, under a short switch interval: every round
    # trip is still bitwise the one-group result.
    op = split_operator
    X = np.random.default_rng(9).normal(size=(op.num_nodes, 32))
    data, back = _one_group(op, X)
    monkeypatch.setattr(transform, "_usable_cpus", lambda: 4)
    results = []

    def call():
        for _ in range(2):
            c = decompose(op, X)
            results.append(np.array_equal(c, data)
                           and np.array_equal(reconstruct(op, c), back))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == 8 * [True]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch, split_operator):
    # A child process has none of its parent's threads. A parent that split
    # a transform before the fork leaves nothing behind the child needs:
    # the child's split transform makes its own threads and is bitwise the
    # parent's.
    op = split_operator
    X = np.random.default_rng(11).normal(size=(op.num_nodes, 32))
    data, _ = _one_group(op, X)
    monkeypatch.setattr(transform, "_usable_cpus", lambda: 2)
    np.testing.assert_array_equal(decompose(op, X), data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:
        os._exit(0 if np.array_equal(decompose(op, X), data) else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_a_column_slice_is_refused_as_a_work_array():
    # A group runs on its own C-contiguous work arrays. A column slice of a
    # wider array is not one: its flat view is a copy, and f2py would update
    # a copy of it too, so the kernels' updates would be lost.
    s = _recurrence_matrix(random_er_graph(30, 4.0, 3).laplacian)
    wide = np.zeros((30, 16))
    good = np.zeros((30, 8))
    for terms in ((wide[:, :8], good), (good, wide[:, 8:])):
        with pytest.raises(ValueError, match="Chebyshev recurrence"):
            transform._kernel_operands(s, terms)
    # The block updates' outputs are no different: dgemm given a c that is
    # not Fortran-contiguous (a column slice, or C order) and dgemv given a
    # strided y return an updated copy and leave the array as it was.
    for c in (np.asfortranarray(np.zeros((30, 4)))[:, ::2], np.zeros((30, 2))):
        updated = transform.dgemm(1.0, np.ones((30, 1)), np.ones((1, 2)), beta=1.0, c=c,
                                  overwrite_c=True)
        assert updated is not c and updated.all() and not c.any()
    y = np.zeros(60)[::2]
    updated = transform.dgemv(1.0, np.ones((30, 2), order="F"), np.ones(2), beta=1.0,
                              y=y, overwrite_y=True)
    assert updated is not y and updated.all() and not y.any()


def test_only_transform_imports_the_private_sparse_kernel():
    # ``scipy.sparse._sparsetools`` is private: SciPy may rename or change
    # it in any release. One importer keeps the CI check at the dependency
    # floors, and any port, to one file.
    from scipy.sparse import _sparsetools

    src = Path(transform.__file__).parent
    importers = [p.relative_to(src).as_posix() for p in sorted(src.rglob("*.py"))
                 if "_sparsetools" in p.read_text(encoding="utf-8")]
    assert importers == ["transform.py"]
    assert transform.csr_matvecs is _sparsetools.csr_matvecs


@pytest.mark.parametrize("bad", ["smaller graph", "larger graph", "float32"])
def test_recurrences_refuse_a_wrong_operand_before_the_first_product(
    monkeypatch, small_laplacian, bad
):
    # The kernel trusts the sizes it is given: an S built for another graph
    # size would read and write past the work arrays. Both recurrences
    # check every operand once, so neither makes a single product.
    n = small_laplacian.num_rows
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=2, mode="chebyshev"), 2.0
    )
    op = build_operators(system, small_laplacian)
    X = np.random.default_rng(4).normal(size=(n, 3))
    c = decompose(op, X)
    recurrence = {
        "smaller graph": _recurrence_matrix(random_er_graph(n - 1, 4.0, 5).laplacian),
        "larger graph": _recurrence_matrix(random_er_graph(n + 1, 4.0, 5).laplacian),
        "float32": SparseMatrix(
            _recurrence_matrix(small_laplacian).csr.astype(np.float32)
        ),
    }[bad]
    calls = []
    monkeypatch.setattr(transform, "csr_matvecs", lambda *args: calls.append(args))
    bad_op = dataclasses.replace(op, recurrence=recurrence)
    with pytest.raises(ValueError, match="Chebyshev recurrence"):
        decompose(bad_op, X)
    with pytest.raises(ValueError, match="Chebyshev recurrence"):
        reconstruct(bad_op, c)
    assert calls == []


def test_chebyshev_operator_builds_its_recurrence_matrix_once(
    monkeypatch, small_laplacian
):
    # S = 2(L - I) is fixed for an operator: build_operators builds it, and
    # every product reuses it, bit for bit what a fresh operator computes.
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=2, mode="chebyshev"), 2.0
    )
    X = np.random.default_rng(3).normal(size=(small_laplacian.num_rows, 3))
    fresh = build_operators(system, small_laplacian)
    ref = decompose(fresh, X)
    back_ref = reconstruct(fresh, ref)
    build = transform._recurrence_matrix
    calls = []

    def counting(lap):
        calls.append(lap)
        return build(lap)

    monkeypatch.setattr(transform, "_recurrence_matrix", counting)
    op = build_operators(system, small_laplacian)
    for _ in range(3):
        c = decompose(op, X)
        np.testing.assert_array_equal(c, ref)
        np.testing.assert_array_equal(reconstruct(op, c), back_ref)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="recurrence"):
        dataclasses.replace(op, recurrence=None)


def test_chebyshev_transforms_are_bitwise_the_same_with_int64_indices():
    # S holds int32 indices. An int64 copy stores the same values in the same
    # order, so every product, and so both transforms, agree bit for bit.
    lap = random_er_graph(200, 6.0, np.random.default_rng(15)).laplacian
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=2, mode="chebyshev"), 2.0
    )
    narrow = _recurrence_matrix(lap)
    wide_csr = narrow.csr.copy()
    wide_csr.indptr = wide_csr.indptr.astype(np.int64)
    wide_csr.indices = wide_csr.indices.astype(np.int64)
    wide = SparseMatrix(wide_csr)
    assert (narrow.csr.indices.dtype, wide.csr.indices.dtype) == (np.int32, np.int64)
    op = dataclasses.replace(build_operators(system, lap), recurrence=narrow)
    op_wide = dataclasses.replace(op, recurrence=wide)
    X = np.random.default_rng(16).normal(size=(200, 5))
    c = decompose(op, X)
    c_wide = decompose(op_wide, X)
    assert np.array_equal(c, c_wide)
    assert np.array_equal(reconstruct(op, c), reconstruct(op_wide, c))


def test_operator_bytes_counts_the_arrays_products_read(
    small_laplacian, small_spectrum, small_system
):
    exact = build_operators(small_system, small_laplacian, small_spectrum)
    assert exact.provenance["operator_bytes"] == exact.stack.nbytes
    cheb = build_operators(
        _with_settings(small_system, mode="chebyshev"), small_laplacian
    )
    S = cheb.recurrence
    assert S.csr.indices.dtype == np.int32
    # 8-byte values and 4-byte column indices per entry, 4-byte row offsets.
    assert cheb.provenance["operator_bytes"] == 12 * S.nnz + 4 * (S.num_rows + 1)


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_zero_column_signal_gives_zero_column_outputs(
    small_laplacian, small_spectrum, small_system, mode
):
    op = build_operators(
        _with_settings(small_system, mode=mode), small_laplacian,
        small_spectrum if mode == "exact" else None,
    )
    X = np.empty((op.num_nodes, 0))
    c = decompose(op, X)
    assert c.shape == (op.num_blocks, op.num_nodes, 0)
    assert reconstruct(op, c).shape == (op.num_nodes, 0)


def test_operator_accessors(small_operator, small_system):
    assert small_operator.num_blocks == small_system.num_blocks
    n = small_operator.num_nodes
    assert small_operator.num_rows == small_system.num_blocks * n
    assert small_operator.block_index == small_system.block_index()
    assert small_operator.stack.shape == (small_operator.num_rows, n)
    assert small_operator.provenance["mode"] == "exact"
    with pytest.raises(ValueError, match="stack"):
        dataclasses.replace(small_operator, stack=None)


def test_build_operators_input_errors(small_system, small_laplacian):
    with pytest.raises(ValueError, match="spectrum"):
        build_operators(small_system, small_laplacian)


def test_chebyshev_system_without_spectral_bound_round_trips(small_laplacian):
    # The fits use [0, 2] whatever lam_max is, so lam_max = 0 still builds.
    system = FrameletSystem(haar_filter_bank(), TransformSettings(mode="chebyshev"), 0.0)
    op = build_operators(system, small_laplacian)
    X = np.random.default_rng(4).normal(size=(small_laplacian.num_rows, 2))
    back = reconstruct(op, decompose(op, X))
    assert np.max(np.abs(back - X)) / np.max(np.abs(X)) <= TIGHTNESS_TOL


def test_coefficient_stack_layout(small_operator):
    # Block b of the (B, N, d) array is rows b N to (b + 1) N of the stacked
    # product, low pass first, in block_index order.
    rng = np.random.default_rng(1)
    X = rng.normal(size=(small_operator.num_nodes, 2))
    c = decompose(small_operator, X)
    n = small_operator.num_nodes
    assert type(c) is np.ndarray and c.flags.c_contiguous
    assert c.shape == (small_operator.num_blocks, n, 2)
    flat = small_operator.stack @ X
    b = small_operator.block_index.index((1, 1))
    np.testing.assert_array_equal(c[b], flat[b * n : (b + 1) * n])
    np.testing.assert_array_equal(c[0], flat[:n])
    assert small_operator.block_index[0] == (0, small_operator.system.settings.levels)
    energies = block_energies(c)
    assert energies.shape == (small_operator.num_blocks,)
    for b in range(small_operator.num_blocks):  # bitwise the per-block sums
        assert energies[b] == np.sum(flat[b * n : (b + 1) * n] ** 2)


def test_decompose_shape_errors(small_operator):
    with pytest.raises(ValueError, match="rows"):
        decompose(small_operator, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="2-d"):
        decompose(small_operator, np.zeros(small_operator.num_nodes))


def test_reconstruct_mismatch_errors(small_operator):
    other = framelet_operator(path_graph(small_operator.num_nodes + 1))
    with pytest.raises(ValueError, match="match"):
        reconstruct(small_operator, decompose(other, np.zeros((other.num_nodes, 1))))


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_reconstruct_refuses_a_flat_or_mismatched_coefficient_array(
    small_laplacian, small_spectrum, small_system, mode
):
    # Only a 3-d array whose first two axes are the operator's blocks and
    # nodes is coefficients of it: the flat (B N) x d rows, one block too
    # many or too few, and one node too many or too few are refused, also
    # for a restricted operator, whose coefficients keep all N nodes.
    op = _both_modes(small_system, small_laplacian, small_spectrum)[mode == "chebyshev"]
    b, n = op.num_blocks, op.num_nodes
    c = decompose(op, np.ones((n, 2)))
    sub = op.restrict(np.arange(3))
    for target in (op, sub):
        assert reconstruct(target, c).shape == (target.num_signal_rows, 2)
        for bad in (c.reshape(b * n, 2), c[0], c[..., None], c[:-1],
                    np.concatenate([c, c[:1]]), c[:, :-1], np.zeros((b, n + 1, 2)),
                    c[:, :3]):
            with pytest.raises(ValueError, match=rf"\({b}, {n}, d\)"):
                reconstruct(target, bad)


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_decompose_returns_a_c_contiguous_block_array(
    small_laplacian, small_spectrum, small_system, mode
):
    # Any input layout gives a C-contiguous (B, N, d) float64 array; a
    # restricted operator's output has all N nodes, and is zero-padded
    # decompose of its rows' signal.
    op = _both_modes(small_system, small_laplacian, small_spectrum)[mode == "chebyshev"]
    b, n = op.num_blocks, op.num_nodes
    X = np.random.default_rng(7).normal(size=(n, 3))
    rows = np.arange(1, n, 2)
    padded = np.zeros_like(X)
    padded[rows] = X[rows]
    for target, signal in ((op, X), (op, np.asfortranarray(X)), (op, X[:, ::-1]),
                           (op.restrict(rows), X[rows])):
        c = decompose(target, signal)
        assert type(c) is np.ndarray and c.dtype == np.float64
        assert c.shape == (b, n, 3) and c.flags.c_contiguous and c.flags.writeable
    _assert_matches(decompose(op.restrict(rows), X[rows]), decompose(op, padded),
                    mode == "chebyshev")


@st.composite
def edge_case_graphs(draw):
    """Disjoint unions of isolated nodes, paths, cycles, cliques and paths
    with a self loop on every node."""
    kinds = st.sampled_from(("isolated", "path", "cycle", "clique", "looped_path"))
    parts = draw(st.lists(st.tuples(kinds, st.integers(2, 6)), min_size=1, max_size=4))
    edges, n = [], 0
    for kind, k in parts:
        if kind == "isolated":
            k = 1
        weight = draw(st.floats(0.5, 2.0))
        if kind in ("path", "cycle", "looped_path"):
            edges += [(u, u + 1, weight) for u in range(n, n + k - 1)]
        if kind == "looped_path":
            edges += [(u, u, weight) for u in range(n, n + k)]
        if kind == "cycle" and k > 2:
            edges.append((n + k - 1, n, weight))
        if kind == "clique":
            edges += [(u, v, weight) for u in range(n, n + k) for v in range(u + 1, n + k)]
        n += k
    return build_graph(n, edges)


@given(edge_case_graphs(), st.integers(1, 3))
@example(build_graph(1, []), 2)  # a single node
@example(build_graph(4, []), 3)  # no edges at all
# isolated node, even (bipartite) cycle, triangle
@example(build_graph(8, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0),
                         (5, 6, 1.0), (6, 7, 1.0), (7, 5, 1.0)]), 2)
# a node whose self loop is its only edge (L = 0 there), a looped edge
@example(build_graph(3, [(0, 0, 1.0), (1, 2, 1.0), (2, 2, 0.5)]), 2)
def test_backends_agree_on_edge_case_graphs(graph, levels):
    lap = normalized_laplacian(graph)
    # The unit diagonal of L cancels in the recurrence matrix 2(L - I): only
    # self loops leave diagonal entries, and zeros are not stored.
    s = _recurrence_matrix(lap).csr.tocoo()
    loops = np.count_nonzero(graph.adjacency.csr.diagonal())
    assert np.count_nonzero(s.row == s.col) == loops
    assert s.nnz == 2 * graph.num_edges - loops
    spectrum = eigendecompose(lap)
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=levels), float(spectrum.values[-1])
    )
    op_e = build_operators(system, lap, spectrum)
    op_c = build_operators(_with_settings(system, mode="chebyshev", degree=16), lap)
    np.testing.assert_allclose(_explicit(op_e), _explicit(op_c), atol=PATH_TOL)
    X = np.random.default_rng(0).normal(size=(graph.num_nodes, 2))
    scale = np.max(np.abs(X))
    for op, tol in ((op_e, ROUND_TRIP_TOL), (op_c, TIGHTNESS_TOL)):
        back = reconstruct(op, decompose(op, X))
        assert np.max(np.abs(back - X)) / scale <= tol


@st.composite
def near_boundary_er_graphs(draw):
    """Dense ER graphs on 200 nodes whose top eigenvalue lies within 1% of
    pi/2, the K = -1 / K = 0 boundary: an exact eigenvalue and an estimate
    of it can fall on either side."""
    avg_degree = draw(st.floats(9.5, 11.0))
    graph = random_er_graph(200, avg_degree, draw(st.integers(0, 2**32 - 1)))
    assume(abs(graph.spectrum.values[-1] / (np.pi / 2) - 1.0) <= 0.01)
    return graph


@given(st.one_of(edge_case_graphs(), near_boundary_er_graphs()))
# exact top eigenvalue 1.5685 (K = -1), Lanczos bound 1.5840 (K = 0)
@example(random_er_graph(200, 10, 0))
# the default SBM-300 node dataset at data seed 7: 1.5620 vs 1.5775
@example(generate_sbm([100] * 3, 0.1, 0.01, seed=7).graph)
def test_both_modes_build_one_transform_of_a_graph(graph):
    op_e = framelet_operator(graph, TransformSettings(mode="exact"))
    op_c = framelet_operator(graph, TransformSettings(mode="chebyshev"))
    assert op_e.system.K == op_c.system.K
    assert op_e.system.lam_max == op_c.system.lam_max == graph.lanczos_bound
    np.testing.assert_allclose(_explicit(op_e), _explicit(op_c), atol=PATH_TOL)


def test_chebyshev_operator_never_multiplies_sparse_matrices(monkeypatch):
    # Sparse matrix polynomials fill in to dense: on this Cora-sized graph
    # materializing them took minutes and over a gigabyte. Every product of
    # the recurrences is a call of the in-place kernel on dense operands;
    # a product by ``@`` must not be sparse either.
    matmul = SparseMatrix.__matmul__
    kernel = transform.csr_matvecs
    dense_products = []

    def no_spgemm(self, other):
        if isinstance(other, SparseMatrix):
            raise AssertionError("sparse @ sparse product")
        return matmul(self, other)

    def dense_only(n_row, n_col, n_vecs, indptr, indices, values, x, y):
        if not type(x) is type(y) is np.ndarray:
            raise AssertionError("non-dense operand in the recurrence")
        dense_products.append((n_row, n_vecs))
        kernel(n_row, n_col, n_vecs, indptr, indices, values, x, y)

    monkeypatch.setattr(SparseMatrix, "__matmul__", no_spgemm)
    monkeypatch.setattr(transform, "csr_matvecs", dense_only)
    data = generate_sbm(
        [387] * 6 + [386], 0.009, 0.0002, GaussianFeatures(dim=8), seed=0
    )
    assert data.graph.num_nodes == 2708
    assert 3.5 <= 2 * data.graph.num_edges / 2708 <= 4.5
    op = framelet_operator(
        data.graph, TransformSettings(levels=2, degree=16, mode="chebyshev")
    )
    X = data.features
    back = reconstruct(op, decompose(op, X))
    assert np.linalg.norm(back - X) / np.linalg.norm(X) <= 1e-6
    assert dense_products == [X.shape] * (2 * op.system.recurrence_degree)


# --------------------------------------------- one spectrum per Graph object

def _count_calls(monkeypatch, *names):
    """Count calls to the named ``ufg.graphs`` functions, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(graphs, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(graphs, name, counting)
    return calls


@pytest.mark.parametrize(
    "mode, solver", [("exact", "eigendecompose"), ("chebyshev", "lambda_max")]
)
def test_framelet_operator_computes_spectral_data_once_per_graph(
    monkeypatch, mode, solver
):
    calls = _count_calls(monkeypatch, "normalized_laplacian", solver)
    g = random_er_graph(30, 4.0, np.random.default_rng(12))
    first = framelet_operator(g, TransformSettings(levels=2, mode=mode))
    second = framelet_operator(
        g, TransformSettings(dilation=1.5, levels=3, degree=8, mode=mode)
    )
    assert calls == {"normalized_laplacian": 1, solver: 1}
    assert first.lap is second.lap is g.laplacian


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_cached_operator_is_bitwise_a_fresh_build(mode):
    def graph():
        return random_er_graph(40, 4.0, np.random.default_rng(13))

    g = graph()
    framelet_operator(g, TransformSettings(mode=mode))  # fills the spectral cache
    cached = framelet_operator(g, TransformSettings(levels=3, mode=mode))
    fresh = framelet_operator(graph(), TransformSettings(levels=3, mode=mode))
    for name in ("K", "lam_max"):
        assert getattr(cached.system, name) == getattr(fresh.system, name)
    np.testing.assert_array_equal(
        cached.system.chebyshev_coeffs, fresh.system.chebyshev_coeffs, strict=True
    )
    if mode == "exact":
        np.testing.assert_array_equal(cached.stack, fresh.stack, strict=True)
    else:
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(
                getattr(cached.recurrence.csr, name),
                getattr(fresh.recurrence.csr, name),
                strict=True,
            )
    X = np.random.default_rng(14).normal(size=(40, 3))
    c = decompose(cached, X)
    np.testing.assert_array_equal(c, decompose(fresh, X), strict=True)
    np.testing.assert_array_equal(reconstruct(cached, c), reconstruct(fresh, c))


def test_graph_keeps_the_operator_of_its_latest_settings(monkeypatch):
    builds = []
    real = transform.build_operators

    def counting(system, lap, spectrum=None):
        builds.append((system.settings.dilation, system.settings.levels))
        return real(system, lap, spectrum)

    monkeypatch.setattr(transform, "build_operators", counting)
    g = random_er_graph(30, 4.0, np.random.default_rng(15))
    first = framelet_operator(g)
    same = TransformSettings(2.0, 2, TransformSettings.degree, "exact")
    assert framelet_operator(g, same) is first
    assert len(builds) == 1
    # Other settings build again and take the graph's one slot.
    assert framelet_operator(g, TransformSettings(levels=3)).system.settings.levels == 3
    assert framelet_operator(g) is not first
    assert builds == [(2.0, 2), (2.0, 3), (2.0, 2)]
    # An equal graph starts with an empty slot.
    fresh = framelet_operator(dataclasses.replace(g))
    assert len(builds) == 4
    # The settings store the dilation as a float, so 2 and 2.0 are one
    # operator, with the provenance of a fresh build.
    as_int = framelet_operator(g, TransformSettings(dilation=2))
    assert as_int is framelet_operator(g, TransformSettings(dilation=2.0))
    assert len(builds) == 4
    assert json.dumps(as_int.provenance) == json.dumps(fresh.provenance)


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_cached_operator_arrays_are_read_only(mode):
    g = random_er_graph(20, 3.0, np.random.default_rng(16))
    op = framelet_operator(g, TransformSettings(mode=mode))
    arrays = {"system.chebyshev_coeffs": op.system.chebyshev_coeffs}
    if mode == "exact":
        arrays["stack"] = op.stack
        arrays["restricted stack"] = op.restrict(np.arange(0, 20, 2)).stack
    else:
        for name in ("data", "indices", "indptr"):
            arrays[f"recurrence.{name}"] = getattr(op.recurrence.csr, name)
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        assert np.any(a != 0), name


def test_exact_stack_is_built_in_place_from_the_blocks():
    system, lap, spec = _exact_setup(200, 6.0, levels=2, seed=17)
    n = lap.num_rows
    tracemalloc.start()
    try:
        stack = transform._exact_stack(system, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gains = system.block_gains(spec.values)
    blocks = [spec.matrix_function(g) for g in gains]
    np.testing.assert_array_equal(stack, np.concatenate(blocks), strict=True)
    # The stack, one N x N temporary (``U diag(sqrt|g|)``), the gains and
    # 256 kB of slack, of which the build uses about 70 kB. B blocks concatenated
    # afterwards would peak at twice the stack, 370 kB above the bound.
    assert peak <= stack.nbytes + n * n * 8 + 2 * gains.nbytes + 256 * 1024


def test_exact_stack_assigns_every_entry_of_its_buffer(monkeypatch):
    # Fresh memory may hold anything: the symmetric build must write every
    # entry of its output, the mirrored triangle included, and read none.
    system, lap, spec = _exact_setup(150, 6.0, levels=2, seed=3)
    _fill_empty_with_nan(monkeypatch)
    stack = transform._exact_stack(system, spec)
    blocks = [spec.matrix_function(g) for g in system.block_gains(spec.values)]
    monkeypatch.undo()
    assert np.isfinite(stack).all()
    np.testing.assert_array_equal(stack, np.concatenate(blocks), strict=True)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 150])
def test_matrix_function_sums_signed_runs_symmetrically(n):
    # Gains of both signs, in runs of one and of many columns, and exact
    # zeros: each run is one signed rank-k product of the scaled columns.
    rng = np.random.default_rng(n)
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    g = rng.normal(size=n)
    g[: n // 2] = np.abs(g[: n // 2])
    g[::7] = 0.0
    spec = graphs.Spectrum(np.arange(n, dtype=float), np.ascontiguousarray(U))
    out = spec.matrix_function(g)
    np.testing.assert_array_equal(out, out.T)
    np.testing.assert_allclose(out, (U * g) @ U.T, rtol=0, atol=1e-14 * n)
    # The result does not depend on the memory order of the eigenvectors.
    fortran = graphs.Spectrum(spec.values, np.asfortranarray(U))
    np.testing.assert_array_equal(fortran.matrix_function(g), out, strict=True)


@given(edge_case_graphs(), st.integers(1, 3))
@example(build_graph(1, []), 2)  # a single node
@example(build_graph(4, []), 3)  # no edges at all
@example(build_graph(8, [(1, 2, 1.0), (2, 3, 1.0), (5, 6, 1.0), (6, 7, 1.0)]), 2)
def test_exact_blocks_are_bitwise_symmetric(graph, levels):
    op = framelet_operator(graph, TransformSettings(levels=levels))
    n = graph.num_nodes
    for block in op.stack.reshape(op.num_blocks, n, n):
        np.testing.assert_array_equal(block, block.T)


@pytest.mark.parametrize("seed", range(8))
def test_exact_operator_of_the_sbm_is_orthonormal_to_round_off(seed):
    # The divide-and-conquer eigensolver's eigenvectors are orthonormal to a
    # few ulps, so the exact round trip is too (MRRR's reach 8e-13 here).
    graph = generate_sbm([100] * 3, 0.1, 0.01, seed=seed).graph
    U = graph.spectrum.vectors
    assert np.max(np.abs(U.T @ U - np.eye(graph.num_nodes))) <= 1e-13
    op = framelet_operator(graph, TransformSettings(mode="exact"))
    X = np.random.default_rng(0).normal(size=(graph.num_nodes, 4))
    back = reconstruct(op, decompose(op, X))
    assert np.max(np.abs(back - X)) / np.max(np.abs(X)) <= 1e-13


# ------------------------------------------------ operators on a row subset

# Exact restricted products differ from full ones by GEMM reassociation.
RESTRICT_TOL = 1e-12


def _both_modes(system, lap, spectrum):
    return (
        build_operators(system, lap, spectrum),
        build_operators(_with_settings(system, mode="chebyshev", degree=16), lap),
    )


def _assert_matches(actual, expected, bitwise):
    if bitwise:
        np.testing.assert_array_equal(actual, expected, strict=True)
    else:
        assert actual.shape == expected.shape
        scale = np.max(np.abs(expected), initial=0.0)
        assert np.max(np.abs(actual - expected), initial=0.0) <= RESTRICT_TOL * scale


def _check_restriction(op, rows, X):
    """``op.restrict(rows)`` is ``op`` on the signal zero-padded outside
    ``rows`` and ``op``'s reconstruction read at ``rows``."""
    sub = op.restrict(rows)
    chebyshev = op.system.settings.mode == "chebyshev"
    assert sub.num_signal_rows == rows.size and sub.num_rows == op.num_rows
    padded = np.zeros_like(X)
    padded[rows] = X[rows]
    _assert_matches(decompose(sub, X[rows]), decompose(op, padded), chebyshev)
    c = decompose(op, X)
    back = reconstruct(sub, c)
    _assert_matches(back, reconstruct(op, c)[rows], chebyshev)
    tol = ROUND_TRIP_TOL if not chebyshev else TIGHTNESS_TOL
    assert np.max(np.abs(back - X[rows])) <= tol * np.max(np.abs(X))
    # Every row: the full operator's products, bit for bit.
    whole = op.restrict(np.arange(op.num_nodes))
    np.testing.assert_array_equal(decompose(whole, X), c, strict=True)
    np.testing.assert_array_equal(reconstruct(whole, c), reconstruct(op, c), strict=True)


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_restricted_operator_is_the_full_one_on_its_rows(
    small_laplacian, small_spectrum, small_system, mode
):
    op = _both_modes(small_system, small_laplacian, small_spectrum)[mode == "chebyshev"]
    n = op.num_nodes
    X = np.random.default_rng(21).normal(size=(n, 3))
    for rows in (np.array([0]), np.array([n - 1]), np.arange(0, n, 3),
                 np.arange(n // 2), np.arange(1, n)):
        _check_restriction(op, rows, X)
    sub = op.restrict(np.arange(0, n, 2))
    assert sub.rows.dtype == np.intp and not sub.rows.flags.writeable
    if mode == "exact":
        np.testing.assert_array_equal(sub.stack, op.stack[:, ::2], strict=True)
    else:
        assert sub.stack is None and sub.recurrence is op.recurrence


@given(edge_case_graphs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(build_graph(1, []), 2, 0)  # a single node
@example(build_graph(4, []), 3, 1)  # no edges at all
@example(build_graph(3, [(0, 0, 1.0), (1, 2, 1.0), (2, 2, 0.5)]), 2, 2)
def test_restricted_operators_agree_with_full_ones_on_edge_case_graphs(
    graph, levels, seed
):
    lap = normalized_laplacian(graph)
    spectrum = eigendecompose(lap)
    system = FrameletSystem(
        haar_filter_bank(), TransformSettings(levels=levels), float(spectrum.values[-1])
    )
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    rows = np.flatnonzero(rng.random(n) < 0.5)
    if rows.size == 0:
        rows = np.array([rng.integers(n)])
    X = rng.normal(size=(n, 2))
    for op in _both_modes(system, lap, spectrum):
        _check_restriction(op, rows, X)


BAD_ROWS = {
    "empty": (np.array([], dtype=np.int64), "nonempty"),
    "two-d": (np.array([[0, 1]]), "1-d"),
    "float": (np.array([0.0, 1.0]), "integer"),
    "bool": (np.array([True, False]), "integer"),
    "unsorted": (np.array([2, 1]), "increasing"),
    "duplicate": (np.array([1, 1, 2]), "increasing"),
    "negative": (np.array([-1, 0]), r"\[0, 24\)"),
    "too-large": (np.array([0, 24]), r"\[0, 24\)"),
}


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_restrict_rejects_bad_rows(
    small_laplacian, small_spectrum, small_system, mode, case
):
    op = _both_modes(small_system, small_laplacian, small_spectrum)[mode == "chebyshev"]
    assert op.num_nodes == 24
    rows, message = BAD_ROWS[case]
    with pytest.raises(ValueError, match=message):
        op.restrict(rows)


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_restrict_rejects_a_restricted_operator(
    small_laplacian, small_spectrum, small_system, mode
):
    op = _both_modes(small_system, small_laplacian, small_spectrum)[mode == "chebyshev"]
    sub = op.restrict(np.arange(5))
    with pytest.raises(ValueError, match="already restricted"):
        sub.restrict(np.arange(2))


def test_restricted_products_check_the_signal_rows(small_operator):
    sub = small_operator.restrict(np.arange(5))
    with pytest.raises(ValueError, match="5 rows"):
        decompose(sub, np.zeros((small_operator.num_nodes, 2)))
    assert decompose(sub, np.zeros((5, 2))).shape == (small_operator.num_blocks,
                                                      small_operator.num_nodes, 2)
