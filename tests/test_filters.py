"""Filter bank identities and the scalar Chebyshev fit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from ufg.filters import (
    FilterBank,
    PARTITION_TOL,
    SpectralFunction,
    chebyshev_fit,
    haar_filter_bank,
    verify_refinement,
)

# Frozen during development: t=16 quadrature fit of the low pass on [0, 2].
SCALAR_FIT_TOL = 1e-12

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
    coeffs = chebyshev_fit(bank.low_pass, degree=16)
    grid = np.linspace(0.0, 2.0, 401)
    err = np.max(np.abs(chebval(grid - 1.0, coeffs) - bank.low_pass(grid)))
    assert err <= SCALAR_FIT_TOL


@given(st.integers(0, 6))
def test_chebyshev_fit_exact_on_polynomials(deg):
    coeffs = np.arange(1.0, deg + 2.0)
    fn = np.polynomial.Polynomial(coeffs)
    fit = chebyshev_fit(fn, degree=deg)
    grid = np.linspace(0.0, 2.0, 101)
    np.testing.assert_allclose(chebval(grid - 1.0, fit), fn(grid), atol=1e-10)


def test_chebyshev_fit_degree_zero():
    coeffs = chebyshev_fit(lambda x: np.full_like(x, 4.0), degree=0)
    assert coeffs.shape == (1,)
    assert chebval(-0.5, coeffs) == pytest.approx(4.0)


def test_chebyshev_fit_rejects_bad_args():
    with pytest.raises(ValueError, match="degree"):
        chebyshev_fit(np.cos, degree=-1)
