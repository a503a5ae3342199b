"""Canonical CSR matrices: layout contract, products against dense references."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import sparse_matrix
from ufg import io
from ufg.datasets import cycles_and_stars, generate_sbm, random_er_graph
from ufg.experiments import ExperimentConfig, _GraphTask
from ufg.graphs import (
    _assemble,
    build_graph,
    disjoint_union,
    gershgorin_bound,
    validate_csr,
)
from ufg.perturb import PerturbationSpec, perturb
from ufg.sparse import SparseMatrix
from ufg.transform import _recurrence_matrix

ALGEBRA_TOL = 1e-12

dense_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-5, 5, allow_nan=False),
)


def test_from_dense_round_trip(rng):
    a = rng.normal(size=(5, 7))
    a[np.abs(a) < 0.8] = 0.0
    m = sparse_matrix(a)
    np.testing.assert_array_equal(m.csr.toarray(), a)
    assert m.csr.shape == (5, 7)
    assert m.nnz == np.count_nonzero(a)
    validate_csr(m.csr)


def test_assemble_sums_duplicates_in_input_order():
    m = _assemble((2, 2), [0, 1, 0], [1, 0, 1], [2.0, 1.0, 3.0])
    np.testing.assert_array_equal(m.csr.toarray(), [[0.0, 5.0], [1.0, 0.0]])
    assert m.nnz == 2
    validate_csr(m.csr)
    # Rounding tells the orders apart: (1 + h) + h is 1, (h + h) + 1 is not.
    h = 2.0**-53
    for vals, want in (([1.0, h, h], 1.0), ([h, h, 1.0], 1.0 + 2 * h)):
        assert _assemble((1, 1), [0, 0, 0], [0, 0, 0], vals).csr.data.tolist() == [want]
    # Repeats apart from each other in the input, among other columns.
    m = _assemble((1, 10), [0] * 5, [5, 3, 5, 9, 5], [1.0, 2.0, h, 4.0, h])
    assert m.csr.indptr.tolist() == [0, 3]
    assert m.csr.indices.tolist() == [3, 5, 9]
    assert m.csr.data.tolist() == [2.0, 1.0, 4.0]


def test_constructor_rejects_non_csr():
    with pytest.raises(TypeError):
        SparseMatrix(sp.coo_array(np.eye(2)))


def test_validate_catches_nonfinite():
    bad = sp.csr_array(np.array([[1.0, np.inf], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="finite"):
        validate_csr(bad)


def _raw_csr(indptr, indices):
    """CSR array stored exactly as given, without canonicalization."""
    data = np.ones(len(indices))
    return sp.csr_array((data, indices, indptr), shape=(3, 5))


@pytest.mark.parametrize(
    "indptr, indices, row",
    [
        ([0, 2, 4, 4], [1, 3, 4, 2], 1),  # unsorted row
        ([0, 2, 2, 5], [0, 4, 1, 3, 3], 2),  # repeated column
    ],
)
def test_validate_rejects_bad_row_layout(indptr, indices, row):
    with pytest.raises(ValueError, match=f"row {row}: column indices not strictly"):
        validate_csr(_raw_csr(indptr, indices))


def test_validate_allows_row_starting_below_previous_row_end():
    validate_csr(_raw_csr([0, 2, 4, 5], [3, 4, 0, 1, 0]))


@given(dense_matrices, st.data())
def test_matmul_matches_dense(a, data):
    b = data.draw(
        hnp.arrays(
            np.float64,
            (a.shape[1], data.draw(st.integers(1, 6))),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    out = sparse_matrix(a) @ b
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, a @ b, atol=ALGEBRA_TOL)


def test_gershgorin_bounds_spectral_radius(rng):
    a = rng.normal(size=(10, 10))
    a = (a + a.T) / 2
    lam = np.max(np.abs(np.linalg.eigvalsh(a)))
    assert gershgorin_bound(sparse_matrix(a).csr) >= lam - ALGEBRA_TOL


def _read_graph_text(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4 3\n0 1\n1 2 2.5\n3 3\n")
    return io.read_graph_text(str(path)).adjacency


def _edge_ratio_adjacency(_):
    graph = random_er_graph(40, 3.0, np.random.default_rng(1))
    spec = PerturbationSpec("edge_ratio", 2.0, seed=2)
    return perturb(graph, np.zeros((40, 1)), spec)[0].adjacency


# Every way the library builds a sparse matrix. Each builder takes a
# temporary directory, which only the file reader uses.
LIBRARY_MATRICES = {
    "build_graph": lambda _: build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)]).adjacency,
    "read_graph_text": _read_graph_text,
    "random_er_graph": lambda _: random_er_graph(50, 4.0, 0).adjacency,
    "generate_sbm": lambda _: generate_sbm([10, 10], 0.5, 0.1, seed=0).graph.adjacency,
    "edge_ratio": _edge_ratio_adjacency,
    "laplacian": lambda _: random_er_graph(50, 4.0, 0).laplacian,
    # The GCN adjacency of the union _GraphTask normalizes, and the union's own.
    "gcn_adjacency": lambda _: _GraphTask(
        cycles_and_stars(4, seed=0), ExperimentConfig(task="graph", pool_mode="mean")
    ).norm_adj,
    "recurrence": lambda _: _recurrence_matrix(random_er_graph(50, 4.0, 0).laplacian),
    "graph_union": lambda _: disjoint_union(
        [s.graph for s in cycles_and_stars(4, seed=0)]).adjacency,
}


@pytest.mark.parametrize("name", sorted(LIBRARY_MATRICES))
def test_library_matrices_have_int32_indices(name, tmp_path):
    csr = LIBRARY_MATRICES[name](tmp_path).csr
    assert csr.nnz > 0
    assert (csr.indptr.dtype, csr.indices.dtype) == (np.int32, np.int32)


def test_assemble_keeps_int64_indices_past_int32():
    # One row, so indptr has two entries: a column index past 2^31 - 1 is
    # the only thing int32 cannot hold.
    n = 2**31 + 5
    m = _assemble((1, n), np.array([0]), np.array([n - 1]), np.array([3.0]))
    assert (m.csr.indptr.dtype, m.csr.indices.dtype) == (np.int64, np.int64)
    assert m.nnz == 1
    assert m.csr.indices.tolist() == [n - 1]
    assert m.csr.data.tolist() == [3.0]
