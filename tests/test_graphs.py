"""Graph assembly, Laplacians and spectra against hand-computed oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ufg.datasets import path_graph, random_er_graph
from ufg.graphs import (
    EXACT_SPECTRUM_MAX_NODES,
    Graph,
    build_graph,
    eigendecompose,
    lambda_max,
    normalized_laplacian,
)
from ufg.sparse import SparseMatrix

SPECTRUM_TOL = 1e-10

# Normalized Laplacian of a single edge: both degrees 1, off-diagonal -1.
K2_LAPLACIAN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_build_graph_symmetrizes_and_sums_duplicates():
    g = build_graph(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.5)])
    a = g.adjacency.to_dense()
    np.testing.assert_array_equal(a, a.T)
    assert a[0, 1] == pytest.approx(3.0)
    assert a[1, 2] == pytest.approx(0.5)
    assert g.num_edges == 2


def test_build_graph_self_loops():
    g = build_graph(2, [(0, 0, 2.0), (0, 1, 1.0)])
    assert g.adjacency.to_dense()[0, 0] == pytest.approx(2.0)
    assert g.num_edges == 2
    with_loops = build_graph(2, [(0, 1, 1.0)], add_self_loops=True)
    np.testing.assert_allclose(np.diag(with_loops.adjacency.to_dense()), 1.0)


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


def test_graph_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Graph(num_nodes=3, adjacency=SparseMatrix.identity(2))


def test_degrees():
    g = build_graph(3, [(0, 1, 2.0), (1, 2, 1.0)])
    np.testing.assert_allclose(g.degrees, [2.0, 3.0, 1.0])


def test_normalized_laplacian_single_edge():
    g = build_graph(2, [(0, 1, 1.0)])
    np.testing.assert_allclose(
        normalized_laplacian(g).to_dense(), K2_LAPLACIAN, atol=SPECTRUM_TOL
    )


def test_normalized_laplacian_path3_spectrum():
    lap = normalized_laplacian(path_graph(3))
    vals = np.linalg.eigvalsh(lap.to_dense())
    np.testing.assert_allclose(vals, [0.0, 1.0, 2.0], atol=SPECTRUM_TOL)


def test_normalized_laplacian_isolated_node():
    g = build_graph(3, [(0, 1, 1.0)])  # node 2 isolated
    lap = normalized_laplacian(g).to_dense()
    np.testing.assert_allclose(lap[2], [0.0, 0.0, 1.0], atol=SPECTRUM_TOL)


@given(st.integers(4, 40), st.floats(1.0, 5.0), st.integers(0, 10))
def test_normalized_spectrum_in_unit_band(n, avg_deg, seed):
    g = random_er_graph(n, avg_deg, np.random.default_rng(seed))
    lap = normalized_laplacian(g)
    assert lap.max_abs_asymmetry() == 0.0
    vals = np.linalg.eigvalsh(lap.to_dense())
    assert vals[0] >= -SPECTRUM_TOL
    assert vals[-1] <= 2.0 + SPECTRUM_TOL


def test_lambda_max_exact_vs_power(small_laplacian):
    exact = lambda_max(small_laplacian, "exact")
    power = lambda_max(small_laplacian, "power_iteration")
    gersh = small_laplacian.gershgorin_bound()
    assert exact <= power + SPECTRUM_TOL
    assert power <= gersh + SPECTRUM_TOL


def test_lambda_max_size_cap():
    big = SparseMatrix.identity(EXACT_SPECTRUM_MAX_NODES + 1)
    with pytest.raises(ValueError, match="limited"):
        lambda_max(big, "exact")
    assert lambda_max(big, "power_iteration") == pytest.approx(1.0, rel=0.02)


def test_lambda_max_unknown_method(small_laplacian):
    with pytest.raises(ValueError, match="unknown method"):
        lambda_max(small_laplacian, "lanczos")


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
    np.testing.assert_allclose(recon, small_laplacian.to_dense(), atol=1e-12)


def test_matrix_function_identity(small_spectrum):
    n = small_spectrum.values.size
    out = small_spectrum.matrix_function(np.ones(n))
    np.testing.assert_allclose(out, np.eye(n), atol=1e-12)
    with pytest.raises(ValueError, match="one filter value"):
        small_spectrum.matrix_function(np.ones(n + 1))


def test_eigendecompose_rejects_indefinite():
    neg = SparseMatrix.from_scipy(np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError, match="not PSD"):
        eigendecompose(neg)
