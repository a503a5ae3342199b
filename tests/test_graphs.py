"""Graph assembly, Laplacians and spectra against hand-computed oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import path_graph, sparse_matrix
from ufg.datasets import generate_sbm, random_er_graph
from ufg.graphs import (
    EXACT_SPECTRUM_MAX_NODES,
    LANCZOS_MIN_NODES,
    POWER_ITER_MAX_STEPS,
    POWER_ITER_TOL,
    Graph,
    _assemble,
    build_graph,
    eigendecompose,
    gcn_norm_adjacency,
    gershgorin_bound,
    lambda_max,
    normalized_laplacian,
    validate_csr,
)
from ufg.perturb import PerturbationSpec, perturb
from ufg.sparse import SparseMatrix

SPECTRUM_TOL = 1e-10

# Normalized Laplacian of a single edge: both degrees 1, off-diagonal -1.
K2_LAPLACIAN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_build_graph_symmetrizes_and_sums_duplicates():
    g = build_graph(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.5)])
    a = g.adjacency.csr.toarray()
    np.testing.assert_array_equal(a, a.T)
    assert a[0, 1] == pytest.approx(3.0)
    assert a[1, 2] == pytest.approx(0.5)
    assert g.num_edges == 2


def test_build_graph_sums_duplicates_in_input_order():
    # 3000 edges on 40 nodes: rows of about 150 entries, every pair given
    # several times. The sum of a pair is its weights added left to right
    # in input order, the same at both entries, however the entries sort.
    rng = np.random.default_rng(5)
    ends = rng.integers(0, 40, size=(3000, 2))
    weights = rng.random(3000) * 3 + 1e-3
    want = {}
    for (u, v), w in zip(ends.tolist(), weights.tolist()):
        for pair in {(u, v), (v, u)}:
            want[pair] = want[pair] + w if pair in want else w
    a = build_graph(40, np.column_stack([ends, weights])).adjacency.csr
    assert a.nnz == len(want)
    rows, cols = a.nonzero()
    assert dict(zip(zip(rows.tolist(), cols.tolist()), a.data.tolist())) == want


def test_build_graph_self_loops():
    g = build_graph(2, [(0, 0, 2.0), (0, 1, 1.0)])
    assert g.adjacency.csr.toarray()[0, 0] == pytest.approx(2.0)
    assert g.num_edges == 2


def test_num_edges_is_python_int():
    # ``==`` cannot tell a numpy.int64 from an int; json.dumps can.
    with_loops = build_graph(3, [(0, 0, 2.0), (0, 1, 1.0), (1, 2, 1.0)])
    assert with_loops.num_edges == 3
    assert type(with_loops.num_edges) is int
    er = random_er_graph(20, 3.0, np.random.default_rng(1))
    assert type(er.num_edges) is int


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(2, [(0, 5, 1.0)])
    with pytest.raises(ValueError, match="invalid weight"):
        build_graph(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError, match="invalid weight"):
        build_graph(2, [(0, 1, np.nan)])
    # The first bad row in input order is the one reported.
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has invalid weight -2.0"):
        build_graph(3, [(0, 1, 1.0), (0, 1, -2.0), (0, 7, 1.0)])
    with pytest.raises(ValueError, match=r"edge \(0, 9\) out of range for 3 nodes"):
        build_graph(3, [(1, 2, 1.0), (0, 9, 1.0), (1, 2, 0.0)])
    with pytest.raises(ValueError, match=r"edge \(-1, 2\) out of range"):
        build_graph(3, np.array([[-1.0, 2.0, 1.0]]))
    with pytest.raises(ValueError, match=r"\(u, v, w\) rows"):
        build_graph(3, np.ones((2, 2)))
    # A non-finite endpoint is out of range and named as it is.
    for bad, text in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")):
        with pytest.raises(ValueError, match=rf"edge \({text}, 1\) out of range"):
            build_graph(3, [[bad, 1, 1]])
        with pytest.raises(ValueError, match=rf"edge \(1, {text}\) out of range"):
            build_graph(3, [[1, bad, 1]])


def test_build_graph_refuses_a_node_count_whose_keys_overflow():
    # The assembly codes entry (row, col) as row * N + col, at most N^2 - 1:
    # N = 3 037 000 499 is the largest N whose codes fit int64.
    with pytest.raises(ValueError, match="num_nodes = 3037000500 is too large"):
        build_graph(3_037_000_500, [])


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    # Dyadic weights k/4 keep every sum exact, whatever the order.
    edges = draw(
        st.lists(st.tuples(node, node, st.integers(1, 16).map(lambda k: k / 4)),
                 max_size=24)
    )
    return n, edges


@given(edge_lists())
def test_build_graph_matches_dense_reference(case):
    n, edges = case
    ref = np.zeros((n, n))
    for u, v, w in edges:
        ref[u, v] += w
        if u != v:
            ref[v, u] += w
    g = build_graph(n, edges)
    validate_csr(g.adjacency.csr)
    np.testing.assert_array_equal(g.adjacency.csr.toarray(), ref)
    from_array = build_graph(
        n, np.array(edges, dtype=np.float64).reshape(-1, 3)
    ).adjacency.csr
    for got, want in zip(
        (from_array.indptr, from_array.indices, from_array.data),
        (g.adjacency.csr.indptr, g.adjacency.csr.indices, g.adjacency.csr.data),
    ):
        np.testing.assert_array_equal(got, want)


def _weighted_base_graph():
    """ER graph with weights in {0.25, ..., 1} and two self loops."""
    coo = random_er_graph(40, 4.0, 4).adjacency.csr.tocoo()
    upper = coo.row < coo.col
    u, v = coo.row[upper], coo.col[upper]
    edges = np.column_stack([u, v, 0.25 * (1 + (u + v) % 4)])
    return build_graph(40, np.vstack([edges, [[0, 0, 1.5], [9, 9, 0.5]]]))


def _perturbed_edges(value):
    spec = PerturbationSpec("edge_ratio", value, seed=5)
    return perturb(_weighted_base_graph(), np.zeros((40, 1)), spec)[0]


# sha256 of the CSR (indptr, indices, data) bytes, the index arrays as
# int64. er2000 dates from before array ingest; er300 and both perturbations
# from the move of their pair draws to ``datasets.sample_pairs``; sbm from the
# move of the block model to binomial edge counts per block pair.
GOLDEN_GRAPHS = {
    "er300": lambda: random_er_graph(300, 5.0, 0),
    "er2000": lambda: random_er_graph(2000, 5.0, 1),
    "er64dense": lambda: random_er_graph(64, 40.0, 7),
    "sbm": lambda: generate_sbm([10, 10, 10], 0.5, 0.05, seed=3).graph,
    "perturb0.5": lambda: _perturbed_edges(0.5),
    "perturb2": lambda: _perturbed_edges(2.0),
}
GOLDEN_DIGESTS = {
    "er300": (
        "dd0e05c53dc8734399cc0d4a13b1300ea2b1ab9cf12bb98b87f1cd5d57f6a020",
        "712950dddc8615697eef2850a331802c37c34308e3deb0a9a983a9724c1db51f",
        "bcef1460ac8dc1daf7b6950c369fb3f1f36ff8ef4ffa8d8cd714aa47ec830409",
    ),
    "er2000": (
        "f5f0d67673fef4eb55a8ee3e2981dc6dac88025cacf434dd598bc24fd502b936",
        "7942678becc1e2884c5be71e280cd6309b6bad8bb3f544223da680a99068b2b8",
        "7f8614f4c7d9e08633e2b6da143e27944bf2908aa49a717f4895be0e1e7c3a21",
    ),
    "er64dense": (
        "5757b2eb29ea6be0f783c62830aeb20d911eef86364885d97284be39333388a0",
        "9cc77834d25d5914f262ede5812430992d04cd5001f101566710bd5830cc5e16",
        "97a142af5e2ed55256d1285e5acac21a237bbbc22686cfa375b5040e95f45ea3",
    ),
    "sbm": (
        "f3207e64c367a24df5de80acc0bc37faa28f36d3c506e1e153c11a984f1c08fc",
        "86bee434ec3e78eae3c04bdf33111d4730a885fc9d0e6655a44031e00367beba",
        "f8ce2ec6ea8046fea9ebb0cfa3655f91463008c47d35cd4143306c0de3cc5030",
    ),
    "perturb0.5": (
        "ab05906f0a1bfea897d3040d9e2a84e8c2142742ec8e66892e3930d10e725649",
        "7628c5020d1619125d3807d6147774d759b21a3aad3984c090577dfdff8045e7",
        "bd6bc95fb85b370230d2eee248c1c7abdf3603b48274af58b2ac01c1568f9a23",
    ),
    "perturb2": (
        "83398d9e16a78780022a6f898b3e57c873168d3e8deba3fe6cbc2b74672411ed",
        "ad8a42fc4872ffe62bcfc0f6fa33412b3063a5fde0e19a423673f3c8ff3c11a9",
        "f79190a4b2eb376d2e600232fc539dcdeca27c7c7cd5e495de947b286f048271",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_generated_graphs_match_golden_digests(name):
    csr = GOLDEN_GRAPHS[name]().adjacency.csr
    assert [a.dtype for a in (csr.indptr, csr.indices, csr.data)] == [
        np.int32, np.int32, np.float64
    ]
    # The digests were recorded from int64 index arrays; hashing the indices
    # widened back to int64 shows the graphs themselves did not change.
    arrays = (csr.indptr.astype(np.int64), csr.indices.astype(np.int64), csr.data)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert got == GOLDEN_DIGESTS[name]


def test_graph_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Graph(num_nodes=3, adjacency=sparse_matrix(np.eye(2)))


def test_degrees():
    g = build_graph(3, [(0, 1, 2.0), (1, 2, 1.0)])
    np.testing.assert_allclose(g.degrees, [2.0, 3.0, 1.0])


def test_normalized_laplacian_single_edge():
    g = build_graph(2, [(0, 1, 1.0)])
    np.testing.assert_allclose(
        normalized_laplacian(g).csr.toarray(), K2_LAPLACIAN, atol=SPECTRUM_TOL
    )


def test_normalized_laplacian_path3_spectrum():
    lap = normalized_laplacian(path_graph(3))
    vals = np.linalg.eigvalsh(lap.csr.toarray())
    np.testing.assert_allclose(vals, [0.0, 1.0, 2.0], atol=SPECTRUM_TOL)


def test_normalized_laplacian_isolated_node():
    g = build_graph(3, [(0, 1, 1.0)])  # node 2 isolated
    lap = normalized_laplacian(g).csr.toarray()
    np.testing.assert_allclose(lap[2], [0.0, 0.0, 1.0], atol=SPECTRUM_TOL)


@given(st.integers(4, 40), st.floats(1.0, 5.0), st.integers(0, 10))
def test_normalized_spectrum_in_unit_band(n, avg_deg, seed):
    g = random_er_graph(n, avg_deg, np.random.default_rng(seed))
    lap = normalized_laplacian(g)
    assert (lap.csr != lap.csr.T).nnz == 0
    vals = np.linalg.eigvalsh(lap.csr.toarray())
    assert vals[0] >= -SPECTRUM_TOL
    assert vals[-1] <= 2.0 + SPECTRUM_TOL


def _exact_lambda_max(lap):
    return float(eigendecompose(lap).values[-1])


def test_lambda_max_exact_vs_power(small_laplacian):
    exact = _exact_lambda_max(small_laplacian)
    power = lambda_max(small_laplacian, "power_iteration")
    gersh = gershgorin_bound(small_laplacian.csr)
    assert exact <= power + SPECTRUM_TOL
    assert power <= gersh + SPECTRUM_TOL


def test_eigendecompose_size_cap():
    n = EXACT_SPECTRUM_MAX_NODES + 1
    big = _assemble((n, n), np.arange(n), np.arange(n), np.ones(n))
    with pytest.raises(ValueError, match="limited"):
        eigendecompose(big)
    # The estimates have no size cap.
    assert lambda_max(big, "power_iteration") == pytest.approx(1.0, rel=0.02)


def test_lambda_max_unknown_method(small_laplacian):
    # The exact top eigenvalue is eigendecompose's, not an estimate's.
    for method in ("arnoldi", "exact"):
        with pytest.raises(ValueError, match="unknown method"):
            lambda_max(small_laplacian, method)


def _isolated_edges(pairs):
    return build_graph(2 * pairs, [(2 * i, 2 * i + 1, 1.0) for i in range(pairs)])


# The edge-case shapes of the backend agreement test, below and above the
# size where the dense solve hands over to ARPACK.
LANCZOS_CASES = {
    "single node": build_graph(1, []),
    "single edge": build_graph(2, [(0, 1, 1.0)]),
    "edgeless": build_graph(4, []),
    "edgeless, large": build_graph(3 * LANCZOS_MIN_NODES, []),
    "isolated edges": _isolated_edges(3),
    "isolated edges, large": _isolated_edges(2 * LANCZOS_MIN_NODES),
    "path": path_graph(5),
    "path, large": path_graph(5 * LANCZOS_MIN_NODES),
}


@pytest.mark.parametrize("name", LANCZOS_CASES)
def test_lanczos_estimate_between_exact_and_gershgorin(name):
    lap = normalized_laplacian(LANCZOS_CASES[name])
    estimate = lambda_max(lap, "lanczos")
    exact = _exact_lambda_max(lap)
    assert exact - 1e-6 <= estimate <= gershgorin_bound(lap.csr)


@pytest.mark.parametrize("seed", range(3))
def test_lanczos_estimate_bounds_sbm_spectrum(seed):
    data = generate_sbm([100] * 3, 0.1, 0.01, seed=seed)
    lap = normalized_laplacian(data.graph)
    exact = _exact_lambda_max(lap)
    estimate = lambda_max(lap, "lanczos")
    # A Ritz value never exceeds the top eigenvalue, so 1.01x caps it.
    assert exact - 1e-6 <= estimate <= min(1.01 * exact, gershgorin_bound(lap.csr)) + 1e-12


def _two_product_power_estimate(lap):
    """Reference power loop that recomputes each image for the quotient."""
    n = lap.num_rows
    vec = 1.0 + np.arange(n, dtype=np.float64) / n
    vec /= np.linalg.norm(vec)
    rho = 0.0
    for _ in range(POWER_ITER_MAX_STEPS):
        nxt = lap @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            break
        nxt /= norm
        rho_new = float(nxt @ (lap @ nxt))
        if abs(rho_new - rho) <= POWER_ITER_TOL * max(1.0, abs(rho_new)):
            rho = rho_new
            break
        rho, vec = rho_new, nxt
    return float(min(1.01 * max(rho, 0.0), gershgorin_bound(lap.csr)))


def test_power_iteration_one_product_per_step(monkeypatch):
    lap = normalized_laplacian(random_er_graph(200, 6.0, 0))
    expected = _two_product_power_estimate(lap)
    calls = []
    real = SparseMatrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    assert lambda_max(lap, "power_iteration") == expected
    assert len(calls) <= POWER_ITER_MAX_STEPS + 1


def test_lambda_max_empty_graph():
    g = build_graph(3, [])
    assert lambda_max(normalized_laplacian(g), "power_iteration") >= 0.0


def test_eigendecompose_orthonormal(small_laplacian):
    spec = eigendecompose(small_laplacian)
    n = small_laplacian.num_rows
    gram = spec.vectors.T @ spec.vectors
    np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)
    assert np.all(np.diff(spec.values) >= 0)
    assert np.all(spec.values >= 0)
    recon = spec.matrix_function(spec.values)
    np.testing.assert_allclose(recon, small_laplacian.csr.toarray(), atol=1e-12)


def test_matrix_function_identity(small_spectrum):
    n = small_spectrum.values.size
    out = small_spectrum.matrix_function(np.ones(n))
    np.testing.assert_allclose(out, np.eye(n), atol=1e-12)
    with pytest.raises(ValueError, match="one filter value"):
        small_spectrum.matrix_function(np.ones(n + 1))


def test_eigendecompose_rejects_indefinite():
    neg = sparse_matrix(np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError, match="not PSD"):
        eigendecompose(neg)


# ----------------------------------------------------------- spectral cache

def test_graph_spectral_cache_is_bitwise_the_uncached_functions():
    g = random_er_graph(40, 4.0, np.random.default_rng(8))
    lap = normalized_laplacian(g)
    assert g.laplacian is g.laplacian
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(
            getattr(g.laplacian.csr, name), getattr(lap.csr, name), strict=True
        )
    spec = eigendecompose(lap)
    assert g.spectrum is g.spectrum
    np.testing.assert_array_equal(g.spectrum.values, spec.values, strict=True)
    np.testing.assert_array_equal(g.spectrum.vectors, spec.vectors, strict=True)
    assert g.lanczos_bound == lambda_max(lap, "lanczos")


def test_graph_spectral_cache_arrays_are_read_only():
    g = random_er_graph(20, 3.0, np.random.default_rng(9))
    arrays = {
        "adjacency.data": g.adjacency.csr.data,
        "adjacency.indices": g.adjacency.csr.indices,
        "adjacency.indptr": g.adjacency.csr.indptr,
        "laplacian.data": g.laplacian.csr.data,
        "laplacian.indices": g.laplacian.csr.indices,
        "laplacian.indptr": g.laplacian.csr.indptr,
        "spectrum.values": g.spectrum.values,
        "spectrum.vectors": g.spectrum.vectors,
    }
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
        assert np.any(a != 0), name
    # The plain functions still hand out arrays of their own.
    assert normalized_laplacian(g).csr.data.flags.writeable
    assert eigendecompose(g.laplacian).vectors.flags.writeable
    assert gcn_norm_adjacency(g).csr.data.flags.writeable


def test_perturbed_graph_computes_its_own_spectrum():
    g = random_er_graph(30, 4.0, np.random.default_rng(10))
    before = g.spectrum
    spec = PerturbationSpec("edge_ratio", 0.7, seed=1)
    h, _ = perturb(g, np.ones((30, 1)), spec)
    assert h is not g
    assert h.spectrum is not before
    expected = eigendecompose(normalized_laplacian(h))
    np.testing.assert_array_equal(h.spectrum.values, expected.values)
    assert not np.array_equal(h.spectrum.values, before.values)
    assert g.spectrum is before
