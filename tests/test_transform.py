"""Transform blocks: round trips, tightness, path equivalence, block order."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from ufg import graphs, transform
from ufg.datasets import GaussianFeatures, generate_sbm, random_er_graph
from ufg.filters import FilterBank, chebyshev_fit, haar_filter_bank
from ufg.graphs import build_graph, eigendecompose, lambda_max, normalized_laplacian
from ufg.sparse import SparseMatrix
from ufg.transform import (
    CoefficientStack,
    _recurrence_matrix,
    FrameletSystem,
    block_energies,
    build_operators,
    chebyshev_decompose,
    chebyshev_reconstruct,
    compute_K,
    decompose,
    framelet_operator,
    make_system,
    reconstruct,
)

ROUND_TRIP_TOL = 1e-10
TIGHTNESS_TOL = 1e-6
PATH_TOL = 1e-8


def _explicit(op):
    """The stacked operator as a dense matrix: its image of the identity."""
    return decompose(op, np.eye(op.num_nodes)).data


def _exact_setup(n, avg_deg, levels, seed):
    g = random_er_graph(n, avg_deg, np.random.default_rng(seed))
    lap = normalized_laplacian(g)
    spec = eigendecompose(lap)
    lam = float(spec.values[-1]) if spec.values.size else 0.0
    system = make_system(haar_filter_bank(), lam, levels=levels)
    return system, lap, spec


def test_compute_K_oracles():
    assert compute_K(2.0, 2.0) == 0
    assert compute_K(np.pi, 2.0) == 0  # boundary counts as in-bounds
    assert compute_K(10.0, 2.0) == 2
    assert compute_K(0.5, 2.0) == -2


def test_compute_K_rejects_bad_args():
    with pytest.raises(ValueError, match="positive"):
        compute_K(0.0, 2.0)
    with pytest.raises(ValueError, match="dilation"):
        compute_K(1.0, 1.0)


def test_block_index_order():
    system = make_system(haar_filter_bank(), 2.0, levels=3)
    assert system.block_index() == ((0, 3), (1, 1), (1, 2), (1, 3))
    assert system.num_blocks == 4


def test_factor_scale():
    system = FrameletSystem(haar_filter_bank(), dilation=2.0, levels=2, K=1)
    assert system.factor_scale(1) == pytest.approx(0.5)
    assert system.factor_scale(2) == pytest.approx(1.0)


def test_make_system_zero_spectrum():
    system = make_system(haar_filter_bank(), 0.0)
    assert system.K == 0


def test_system_validation():
    bank = haar_filter_bank()
    with pytest.raises(ValueError, match="dilation"):
        FrameletSystem(bank, dilation=1.0)
    with pytest.raises(ValueError, match="levels"):
        FrameletSystem(bank, levels=0)
    with pytest.raises(ValueError, match="mode"):
        FrameletSystem(bank, mode="lanczos")
    with pytest.raises(ValueError, match="K too small"):
        FrameletSystem(bank, K=-2, lam_max=2.0)


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
    for j in range(1, small_system.levels + 1):
        truncated = dataclasses.replace(small_system, levels=j)
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
    lam = lambda_max(lap, "power_iteration")
    errs = {}
    for t in (8, 16):
        system = make_system(haar_filter_bank(), lam, degree=t, mode="chebyshev")
        w = _explicit(build_operators(system, lap))
        errs[t] = np.max(np.abs(w.T @ w - np.eye(50)))
    assert errs[16] <= TIGHTNESS_TOL
    assert errs[8] > errs[16]


def test_path_equivalence_exact_vs_chebyshev(small_laplacian, small_spectrum):
    lam = float(small_spectrum.values[-1])
    exact_sys = make_system(haar_filter_bank(), lam, levels=2, mode="exact")
    cheb_sys = make_system(
        haar_filter_bank(), lam, levels=2, degree=16, mode="chebyshev"
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
    exact_sys = make_system(filters, lam, levels=levels, degree=t, mode="exact")
    op_e = build_operators(exact_sys, small_laplacian, small_spectrum)
    cheb_sys = dataclasses.replace(exact_sys, mode="chebyshev")
    op_c = build_operators(cheb_sys, small_laplacian)
    np.testing.assert_allclose(_explicit(op_e), _explicit(op_c), atol=PATH_TOL)

    calls = []
    matmul = SparseMatrix.__matmul__

    def counting(self, other):
        calls.append(other.shape)
        return matmul(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
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


@pytest.mark.parametrize("t", [8, 16])
@pytest.mark.parametrize("K", [0, -1])
@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("dilation", [1.5, 2.0])
@pytest.mark.parametrize("bank", ["haar", "linear"])
def test_direct_block_fit_never_less_accurate_than_factor_cascade(
    bank, dilation, levels, K, t
):
    # The reference fits each dilated mask factor at degree t and chains the
    # fitted factors per block, as a per-level cascade applies them. With
    # lam_max = 0 the system takes K as given.
    system = FrameletSystem(
        haar_filter_bank() if bank == "haar" else _linear_bank(),
        dilation=dilation, levels=levels, K=K, lam_max=0.0, degree=t,
        mode="chebyshev",
    )
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
        dilation=dilation, levels=levels, K=K, lam_max=0.0, degree=t,
        mode="chebyshev",
    )
    full = chebyshev_fit(system.block_gains, t + 4 * (levels - 1))
    chopped = system.chebyshev_coeffs
    # The chop only drops trailing columns, never all of them.
    assert 1 <= chopped.shape[1] <= full.shape[1]
    np.testing.assert_array_equal(chopped, full[:, : chopped.shape[1]])
    x = np.linspace(0.0, 2.0, 2001) - 1.0
    assert np.max(np.abs(chebval(x, chopped.T) - chebval(x, full.T))) <= transform.CHOP_TOL


@pytest.mark.parametrize("lam, K", [(2.0, 0), (1.5, -1)])
def test_chebyshev_provenance_measures_the_fit(small_laplacian, lam, K):
    system = make_system(haar_filter_bank(), lam, levels=2, degree=16, mode="chebyshev")
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
    system = make_system(
        _linear_bank(), float(spec.values[-1]), levels=levels, degree=degree,
        mode="chebyshev",
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
    np.testing.assert_allclose(reconstruct(op, c), w.T @ c.data, atol=1e-12)


def test_matrix_free_matches_materialized(small_laplacian):
    lam = lambda_max(small_laplacian, "power_iteration")
    system = make_system(haar_filter_bank(), lam, levels=3, mode="chebyshev")
    w = _explicit(build_operators(system, small_laplacian))
    rng = np.random.default_rng(9)
    X = rng.normal(size=(small_laplacian.num_rows, 4))
    c_free = chebyshev_decompose(system, small_laplacian, X)
    np.testing.assert_allclose(c_free.data, w @ X, atol=1e-12)
    back = chebyshev_reconstruct(system, small_laplacian, c_free)
    # The matrix-free reconstruct is the transpose of the matrix-free decompose.
    np.testing.assert_allclose(back, w.T @ c_free.data, atol=1e-12)
    assert np.max(np.abs(back - X)) <= 1e-8  # tight-frame round trip


@pytest.mark.parametrize("levels", [1, 3])
def test_chebyshev_backend_reads_any_layout_and_never_writes_inputs(
    small_laplacian, levels
):
    # The recurrences update their outputs in place through flat views and a
    # Fortran-ordered view, which alias only C-contiguous buffers: such a
    # view of any other buffer is a copy, and updates made to it are lost.
    # The operator and the direct functions share the recurrences, so both
    # paths run.
    system = make_system(haar_filter_bank(), 2.0, levels=levels, mode="chebyshev")
    op = build_operators(system, small_laplacian)
    n = small_laplacian.num_rows
    wide = np.random.default_rng(levels).normal(size=(n, 6))
    X = np.ascontiguousarray(wide[:, ::2])
    paths = (
        (partial(chebyshev_decompose, system, small_laplacian),
         partial(chebyshev_reconstruct, system, small_laplacian)),
        (partial(decompose, op), partial(reconstruct, op)),
    )
    for forward, adjoint in paths:
        ref = forward(X)
        back = adjoint(ref)
        # Fortran order (the layout of A.T for a C-ordered A) and a strided view.
        for layout in (np.asfortranarray(X), wide[:, ::2]):
            kept = layout.copy()
            c = forward(layout)
            np.testing.assert_allclose(c.data, ref.data, rtol=0, atol=1e-13)
            np.testing.assert_array_equal(layout, kept)
        for data in (ref.data, np.asfortranarray(ref.data)):
            kept = data.copy()
            got = adjoint(ref.with_data(data))
            np.testing.assert_allclose(got, back, rtol=0, atol=1e-13)
            np.testing.assert_array_equal(data, kept)
        assert np.max(np.abs(back - X)) <= TIGHTNESS_TOL


def test_chebyshev_operator_builds_its_recurrence_matrix_once(
    monkeypatch, small_laplacian
):
    # S = 2(L - I) is fixed for an operator: build_operators builds it, and
    # every product reuses it. The direct functions, given only the
    # Laplacian, build the same S, so both paths agree bit for bit.
    system = make_system(haar_filter_bank(), 2.0, levels=2, mode="chebyshev")
    X = np.random.default_rng(3).normal(size=(small_laplacian.num_rows, 3))
    ref = chebyshev_decompose(system, small_laplacian, X)
    back_ref = chebyshev_reconstruct(system, small_laplacian, ref)
    build = transform._recurrence_matrix
    calls = []

    def counting(lap):
        calls.append(lap)
        return build(lap)

    monkeypatch.setattr(transform, "_recurrence_matrix", counting)
    op = build_operators(system, small_laplacian)
    for _ in range(3):
        c = decompose(op, X)
        np.testing.assert_array_equal(c.data, ref.data)
        np.testing.assert_array_equal(reconstruct(op, c), back_ref)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="recurrence"):
        dataclasses.replace(op, recurrence=None)


def test_chebyshev_transforms_are_bitwise_the_same_with_int64_indices():
    # S holds int32 indices. An int64 copy stores the same values in the same
    # order, so every product, and so both transforms, agree bit for bit.
    lap = random_er_graph(200, 6.0, np.random.default_rng(15)).laplacian
    system = make_system(haar_filter_bank(), 2.0, levels=2, mode="chebyshev")
    narrow = _recurrence_matrix(lap)
    wide_csr = narrow.csr.copy()
    wide_csr.indptr = wide_csr.indptr.astype(np.int64)
    wide_csr.indices = wide_csr.indices.astype(np.int64)
    wide = SparseMatrix(wide_csr)
    assert (narrow.csr.indices.dtype, wide.csr.indices.dtype) == (np.int32, np.int64)
    X = np.random.default_rng(16).normal(size=(200, 5))
    c = chebyshev_decompose(system, lap, X, recurrence=narrow)
    c_wide = chebyshev_decompose(system, lap, X, recurrence=wide)
    assert np.array_equal(c.data, c_wide.data)
    assert np.array_equal(
        chebyshev_reconstruct(system, lap, c, recurrence=narrow),
        chebyshev_reconstruct(system, lap, c, recurrence=wide),
    )


def test_operator_bytes_counts_the_arrays_products_read(
    small_laplacian, small_spectrum, small_system
):
    exact = build_operators(small_system, small_laplacian, small_spectrum)
    assert exact.provenance["operator_bytes"] == exact.stack.nbytes
    cheb = build_operators(
        dataclasses.replace(small_system, mode="chebyshev"), small_laplacian
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
        dataclasses.replace(small_system, mode=mode), small_laplacian,
        small_spectrum if mode == "exact" else None,
    )
    X = np.empty((op.num_nodes, 0))
    c = decompose(op, X)
    assert c.data.shape == (op.num_rows, 0)
    assert reconstruct(op, c).shape == (op.num_nodes, 0)
    if mode == "chebyshev":
        c = chebyshev_decompose(op.system, small_laplacian, X)
        assert c.data.shape == (op.num_rows, 0)
        back = chebyshev_reconstruct(op.system, small_laplacian, c)
        assert back.shape == (op.num_nodes, 0)


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
    system = FrameletSystem(haar_filter_bank(), lam_max=0.0, mode="chebyshev")
    op = build_operators(system, small_laplacian)
    X = np.random.default_rng(4).normal(size=(small_laplacian.num_rows, 2))
    back = reconstruct(op, decompose(op, X))
    assert np.max(np.abs(back - X)) / np.max(np.abs(X)) <= TIGHTNESS_TOL


def test_coefficient_stack_layout(small_operator):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(small_operator.num_nodes, 2))
    c = decompose(small_operator, X)
    n = small_operator.num_nodes
    assert c.blocks.shape == (c.num_blocks, n, 2)
    assert np.shares_memory(c.blocks, c.data)
    b = c.block_index.index((1, 1))
    np.testing.assert_array_equal(c.block(1, 1), c.data[b * n : (b + 1) * n])
    np.testing.assert_array_equal(c.low_pass(), c.data[:n])
    energies = block_energies(c)
    assert energies.shape == (c.num_blocks,)
    for b in range(c.num_blocks):  # bitwise the per-block sums, in block order
        assert energies[b] == np.sum(c.data[b * n : (b + 1) * n] ** 2)
    swapped = c.with_data(-c.data)
    np.testing.assert_array_equal(swapped.data, -c.data)
    assert swapped.block_index == c.block_index


def test_coefficient_stack_validation():
    idx = ((0, 1), (1, 1))
    with pytest.raises(ValueError, match="2-d"):
        CoefficientStack(data=np.zeros(4), block_index=idx, num_nodes=2)
    with pytest.raises(ValueError, match="row count"):
        CoefficientStack(data=np.zeros((3, 1)), block_index=idx, num_nodes=2)
    with pytest.raises(ValueError, match="low-pass"):
        CoefficientStack(data=np.zeros((4, 1)), block_index=((1, 1), (0, 1)), num_nodes=2)


def test_decompose_shape_errors(small_operator):
    with pytest.raises(ValueError, match="rows"):
        decompose(small_operator, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="2-d"):
        decompose(small_operator, np.zeros(small_operator.num_nodes))


def test_reconstruct_mismatch_errors(small_operator):
    other = CoefficientStack(
        data=np.zeros((2, 1)), block_index=((0, 1),), num_nodes=2
    )
    with pytest.raises(ValueError, match="match"):
        reconstruct(small_operator, other)


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
    system = make_system(haar_filter_bank(), float(spectrum.values[-1]), levels=levels)
    op_e = build_operators(system, lap, spectrum)
    op_c = build_operators(
        dataclasses.replace(system, mode="chebyshev", degree=16), lap
    )
    np.testing.assert_allclose(_explicit(op_e), _explicit(op_c), atol=PATH_TOL)
    X = np.random.default_rng(0).normal(size=(graph.num_nodes, 2))
    scale = np.max(np.abs(X))
    for op, tol in ((op_e, ROUND_TRIP_TOL), (op_c, TIGHTNESS_TOL)):
        back = reconstruct(op, decompose(op, X))
        assert np.max(np.abs(back - X)) / scale <= tol


def test_chebyshev_operator_never_multiplies_sparse_matrices(monkeypatch):
    # Sparse matrix polynomials fill in to dense: on this Cora-sized graph
    # materializing them took minutes and over a gigabyte.
    matmul = SparseMatrix.__matmul__

    def no_spgemm(self, other):
        if isinstance(other, SparseMatrix):
            raise AssertionError("sparse @ sparse product")
        return matmul(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", no_spgemm)
    data = generate_sbm(
        [387] * 6 + [386], 0.009, 0.0002, GaussianFeatures(dim=8), seed=0
    )
    assert data.graph.num_nodes == 2708
    assert 3.5 <= 2 * data.graph.num_edges / 2708 <= 4.5
    op = framelet_operator(data.graph, levels=2, degree=16, mode="chebyshev")
    X = data.features
    back = reconstruct(op, decompose(op, X))
    assert np.linalg.norm(back - X) / np.linalg.norm(X) <= 1e-6


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
    first = framelet_operator(g, levels=2, mode=mode)
    second = framelet_operator(g, dilation=1.5, levels=3, degree=8, mode=mode)
    assert calls == {"normalized_laplacian": 1, solver: 1}
    assert first.lap is second.lap is g.laplacian


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_cached_operator_is_bitwise_a_fresh_build(mode):
    def graph():
        return random_er_graph(40, 4.0, np.random.default_rng(13))

    g = graph()
    framelet_operator(g, mode=mode)  # fills the cache
    cached = framelet_operator(g, levels=3, mode=mode)
    fresh = framelet_operator(graph(), levels=3, mode=mode)
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
    np.testing.assert_array_equal(c.data, decompose(fresh, X).data, strict=True)
    np.testing.assert_array_equal(reconstruct(cached, c), reconstruct(fresh, c))
