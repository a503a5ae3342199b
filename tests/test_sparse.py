"""CSR wrapper: layout contract, algebra against dense references."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ufg.sparse import SparseMatrix

ALGEBRA_TOL = 1e-12

dense_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-5, 5, allow_nan=False),
)


def test_from_dense_round_trip(rng):
    a = rng.normal(size=(5, 7))
    a[np.abs(a) < 0.8] = 0.0
    m = SparseMatrix.from_scipy(a)
    np.testing.assert_array_equal(m.to_dense(), a)
    assert m.shape == (5, 7)
    assert m.nnz == np.count_nonzero(a)
    m.validate()


def test_from_scipy_sums_coo_duplicates():
    coo = sp.coo_array(([2.0, 3.0, 1.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    m = SparseMatrix.from_scipy(coo)
    np.testing.assert_array_equal(m.to_dense(), [[0.0, 5.0], [1.0, 0.0]])
    assert m.nnz == 2
    m.validate()


def test_identity():
    eye = SparseMatrix.identity(4)
    np.testing.assert_array_equal(eye.to_dense(), np.eye(4))


def test_constructor_rejects_non_csr():
    with pytest.raises(TypeError):
        SparseMatrix(sp.coo_array(np.eye(2)))


def test_validate_catches_nonfinite():
    bad = sp.csr_array(np.array([[1.0, np.inf], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix(bad).validate()


def _raw_csr(indptr, indices):
    """CSR array stored exactly as given, without canonicalization."""
    data = np.ones(len(indices))
    return SparseMatrix(sp.csr_array((data, indices, indptr), shape=(3, 5)))


@pytest.mark.parametrize(
    "indptr, indices, row",
    [
        ([0, 2, 4, 4], [1, 3, 4, 2], 1),  # unsorted row
        ([0, 2, 2, 5], [0, 4, 1, 3, 3], 2),  # repeated column
    ],
)
def test_validate_rejects_bad_row_layout(indptr, indices, row):
    with pytest.raises(ValueError, match=f"row {row}: column indices not strictly"):
        _raw_csr(indptr, indices).validate()


def test_validate_allows_row_starting_below_previous_row_end():
    _raw_csr([0, 2, 4, 5], [3, 4, 0, 1, 0]).validate()


@given(dense_matrices, st.data())
def test_matmul_matches_dense(a, data):
    b = data.draw(
        hnp.arrays(
            np.float64,
            (a.shape[1], data.draw(st.integers(1, 6))),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    out = SparseMatrix.from_scipy(a) @ b
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, a @ b, atol=ALGEBRA_TOL)


@given(dense_matrices)
def test_add_matches_dense(a):
    m = SparseMatrix.from_scipy(a)
    np.testing.assert_allclose(
        m.add(SparseMatrix.from_scipy(0.5 * a)).to_dense(), 1.5 * a, atol=ALGEBRA_TOL
    )


def test_max_abs_asymmetry():
    sym = SparseMatrix.from_scipy(np.array([[0.0, 2.0], [2.0, 1.0]]))
    assert sym.max_abs_asymmetry() == 0.0
    asym = SparseMatrix.from_scipy(np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert asym.max_abs_asymmetry() == pytest.approx(1.0)


def test_gershgorin_bounds_spectral_radius(rng):
    a = rng.normal(size=(10, 10))
    a = (a + a.T) / 2
    m = SparseMatrix.from_scipy(a)
    lam = np.max(np.abs(np.linalg.eigvalsh(a)))
    assert m.gershgorin_bound() >= lam - ALGEBRA_TOL

