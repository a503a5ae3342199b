"""Framelet filter banks and Chebyshev matrix polynomials.

A filter bank is a low-pass mask ``a`` together with high-pass masks
``b_1..b_n`` satisfying the partition of unity ``a(xi)^2 + sum_r b_r(xi)^2
= 1``, which makes the induced framelet system a tight frame. The Haar-type
bank shipped here has one high pass: ``a(xi) = cos(xi / 2)``,
``b(xi) = sin(xi / 2)``, with scaling functions known in closed form.

Filters are applied to a Laplacian either exactly through its
eigendecomposition or approximately as Chebyshev polynomials in the matrix.
``chebyshev_fit`` fits them on ``[0, 2]``, which holds the spectrum of every
normalized Laplacian with nonnegative weights (Chung 1997), so a fit is
never used outside its interval; ``transform`` applies the fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_CHEBYSHEV_DEGREE = 16


@dataclass(frozen=True)
class FilterBank:
    """Low-pass mask plus one or more high-pass masks.

    Every mask is a plain function of a float frequency array. ``scaling_low``
    / ``scaling_high`` optionally carry the scaling functions (Fourier
    transforms of the father / mother wavelets) when closed forms are known;
    they are only needed for refinement checks.
    """

    low_pass: Callable[[np.ndarray], np.ndarray]
    high_passes: tuple[Callable[[np.ndarray], np.ndarray], ...]
    scaling_low: Callable[[np.ndarray], np.ndarray] | None = None
    scaling_high: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def __post_init__(self):
        if not self.high_passes:
            raise ValueError("filter bank needs at least one high pass")
        if self.scaling_high is not None and len(self.scaling_high) != self.num_high:
            raise ValueError("one scaling function per high pass required")

    @property
    def num_high(self) -> int:
        return len(self.high_passes)

    def partition_residual(self, xi) -> np.ndarray:
        """``a^2 + sum_r b_r^2 - 1`` pointwise; zero for a tight bank."""
        total = self.low_pass(xi) ** 2
        for b in self.high_passes:
            total = total + b(xi) ** 2
        return total - 1.0


def haar_filter_bank() -> FilterBank:
    """Haar-type bank: one high pass, partition of unity exact by trig identity.

    Scaling functions (with removable singularities at zero):
    ``alpha(xi) = sin(xi/2) / (xi/2)`` and ``beta(xi) = sin^2(xi/4) / (xi/4)``.
    """
    return FilterBank(
        low_pass=lambda xi: np.cos(xi / 2.0),
        high_passes=(lambda xi: np.sin(xi / 2.0),),
        # sin(x)/x via np.sinc keeps the limit at zero exact.
        scaling_low=lambda xi: np.sinc(xi / (2.0 * np.pi)),
        scaling_high=(lambda xi: np.sin(xi / 4.0) * np.sinc(xi / (4.0 * np.pi)),),
    )


def verify_refinement(bank: FilterBank, xi_grid: np.ndarray) -> dict[str, float]:
    """Max residuals of the two-scale relations on a frequency grid.

    Checks ``alpha(2 xi) = a(xi) alpha(xi)`` and, per high pass,
    ``beta_r(2 xi) = b_r(xi) alpha(xi)``. Requires the bank to carry its
    scaling functions.
    """
    if bank.scaling_low is None or bank.scaling_high is None:
        raise ValueError("bank has no scaling functions to verify")
    xi = np.asarray(xi_grid, dtype=np.float64)
    alpha = bank.scaling_low
    out = {"low": float(np.max(np.abs(alpha(2.0 * xi) - bank.low_pass(xi) * alpha(xi))))}
    for r, (b, beta) in enumerate(zip(bank.high_passes, bank.scaling_high), start=1):
        out[f"high_{r}"] = float(np.max(np.abs(beta(2.0 * xi) - b(xi) * alpha(xi))))
    return out


def chebyshev_fit(
    fn: Callable[[np.ndarray], np.ndarray], degree: int = DEFAULT_CHEBYSHEV_DEGREE
) -> np.ndarray:
    """Chebyshev coefficients of ``fn`` on ``[0, 2]`` by Chebyshev-Gauss quadrature.

    ``coeffs[k]`` multiplies ``T_k(lam - 1)``, with the constant term stored
    already halved, so ``numpy.polynomial.chebyshev.chebval(lam - 1, coeffs)``
    evaluates the fit. Uses the ``degree + 1`` Chebyshev nodes ``x_k =
    cos(pi (k + 1/2) / (degree + 1))``; the quadrature is exact for
    polynomials of the fitted degree, so smooth filters converge
    geometrically. An ``fn`` that returns a ``(B, degree + 1)`` array of B
    functions at the nodes gets a ``(B, degree + 1)`` array, one fit a row.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    t = degree
    k = np.arange(t + 1, dtype=np.float64)
    theta = np.pi * (k + 0.5) / (t + 1)
    fvals = np.asarray(fn(np.cos(theta) + 1.0), dtype=np.float64)
    # T_j at the node x_k = cos(theta_k) is cos(j * theta_k)
    basis = np.cos(np.outer(k, theta))
    # One product per function: each row is bitwise that function's own fit.
    coeffs = (2.0 / (t + 1)) * np.array([basis @ f for f in np.atleast_2d(fvals)])
    coeffs[:, 0] *= 0.5
    return coeffs.reshape(fvals.shape)
