"""Filter bank identities and Chebyshev machinery, scalar vs matrix routes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ufg.datasets import random_er_graph
from ufg.filters import (
    ChebyshevApprox,
    FilterBank,
    PARTITION_TOL,
    SpectralFunction,
    apply_polynomial_to_signal,
    chebyshev_fit,
    haar_filter_bank,
    verify_refinement,
)
from ufg.graphs import eigendecompose, normalized_laplacian

# Frozen during development: t=16 quadrature fit of the low pass on [0, 2].
SCALAR_FIT_TOL = 1e-12
MATRIX_ROUTE_TOL = 1e-10

XI_GRID = np.linspace(0.0, 2.0 * np.pi, 1001)


def test_partition_of_unity_on_grid():
    bank = haar_filter_bank()
    assert np.max(np.abs(bank.partition_residual(XI_GRID))) <= PARTITION_TOL


def test_filter_values_at_landmarks():
    bank = haar_filter_bank()
    assert bank.low_pass(0.0) == pytest.approx(1.0)
    assert bank.low_pass(np.pi) == pytest.approx(np.cos(np.pi / 2), abs=1e-15)
    assert bank.high_passes[0](np.pi) == pytest.approx(1.0)
    assert bank.high_passes[0](0.0) == pytest.approx(0.0)


def test_scaling_functions_at_zero():
    bank = haar_filter_bank()
    assert bank.scaling_low(0.0) == pytest.approx(1.0)
    assert bank.scaling_high[0](0.0) == pytest.approx(0.0)


def test_refinement_identities():
    res = verify_refinement(haar_filter_bank(), XI_GRID)
    assert res["low"] <= PARTITION_TOL
    assert res["high_1"] <= PARTITION_TOL


def test_refinement_requires_scaling_functions():
    bank = haar_filter_bank()
    stripped = FilterBank(bank.low_pass, bank.high_passes)
    with pytest.raises(ValueError, match="scaling"):
        verify_refinement(stripped, XI_GRID)


def test_bank_requires_high_pass():
    low = SpectralFunction("low", np.cos)
    with pytest.raises(ValueError, match="high pass"):
        FilterBank(low_pass=low, high_passes=())


def test_spectral_function_vectorizes():
    f = SpectralFunction("sq", lambda x: x**2)
    np.testing.assert_allclose(f([1.0, 2.0]), [1.0, 4.0])
    assert float(f(3)) == pytest.approx(9.0)


def test_chebyshev_fit_low_pass_frozen_accuracy():
    bank = haar_filter_bank()
    approx = chebyshev_fit(bank.low_pass, degree=16, lam_max=2.0)
    grid = np.linspace(0.0, 2.0, 401)
    assert np.max(np.abs(approx.evaluate(grid) - bank.low_pass(grid))) <= SCALAR_FIT_TOL


@given(st.integers(0, 6))
def test_chebyshev_fit_exact_on_polynomials(deg):
    coeffs = np.arange(1.0, deg + 2.0)
    fn = np.polynomial.Polynomial(coeffs)
    approx = chebyshev_fit(fn, degree=deg, lam_max=3.0)
    grid = np.linspace(0.0, 3.0, 101)
    np.testing.assert_allclose(approx.evaluate(grid), fn(grid), atol=1e-10)


def test_chebyshev_fit_degree_zero():
    approx = chebyshev_fit(lambda x: np.full_like(x, 4.0), degree=0, lam_max=1.0)
    assert approx.degree == 0
    assert approx.evaluate(0.5) == pytest.approx(4.0)


def test_chebyshev_fit_rejects_bad_args():
    with pytest.raises(ValueError, match="degree"):
        chebyshev_fit(np.cos, degree=-1)
    with pytest.raises(ValueError, match="lam_max"):
        chebyshev_fit(np.cos, lam_max=0.0)
    with pytest.raises(ValueError, match="lam_max"):
        chebyshev_fit(np.cos, lam_max=np.inf)


def test_matrix_polynomial_matches_eigenbasis(small_laplacian, small_spectrum):
    bank = haar_filter_bank()
    lam_max = float(small_spectrum.values[-1])
    approx = chebyshev_fit(bank.low_pass, degree=16, lam_max=lam_max)
    n = small_laplacian.num_rows
    via_matrix = apply_polynomial_to_signal(approx, small_laplacian, np.eye(n))
    via_spectrum = small_spectrum.matrix_function(
        approx.evaluate(small_spectrum.values)
    )
    np.testing.assert_allclose(via_matrix, via_spectrum, atol=MATRIX_ROUTE_TOL)


@given(st.integers(0, 12), st.integers(0, 5))
def test_signal_application_matches_materialized(deg, seed):
    rng = np.random.default_rng(seed)
    g = random_er_graph(15, 3.0, rng)
    lap = normalized_laplacian(g)
    lam_max = float(eigendecompose(lap).values[-1]) or 1.0
    approx = chebyshev_fit(lambda x: np.sin(x / 2.0), degree=deg, lam_max=lam_max)
    X = rng.normal(size=(15, 3))
    direct = apply_polynomial_to_signal(approx, lap, np.eye(15)) @ X
    free = apply_polynomial_to_signal(approx, lap, X)
    np.testing.assert_allclose(free, direct, atol=MATRIX_ROUTE_TOL)


def test_matrix_polynomial_requires_square():
    from ufg.sparse import SparseMatrix

    approx = ChebyshevApprox(coeffs=np.array([1.0, 0.5]), lam_max=2.0)
    rect = SparseMatrix.from_scipy(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        apply_polynomial_to_signal(approx, rect, np.ones((2, 1)))


def test_signal_application_checks_rows(small_laplacian):
    approx = ChebyshevApprox(coeffs=np.array([1.0]), lam_max=2.0)
    with pytest.raises(ValueError, match="row count"):
        apply_polynomial_to_signal(approx, small_laplacian, np.ones((3, 1)))
