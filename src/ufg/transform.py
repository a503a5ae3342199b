"""Undecimated framelet decomposition and reconstruction operators.

The transform is a bank of N x N operators ``W_{r,j}``: for filter bank
``{a; b_1..b_n}``, dilation ``d`` and spectral normalizer ``K``,

    W_{g,1} = g(d^{-K} L)
    W_{g,j} = g(d^{j-1-K} L) a(d^{j-2-K} L) ... a(d^{-K} L),   j >= 2

where ``g`` is a high pass ``b_r`` for the detail blocks and ``a`` for the
single low-pass block, whose chain runs to the top level ``J``. Stacked in
canonical order they form one operator ``W``, applied by ``decompose``;
partition of unity of the bank makes ``W`` an isometry, so ``reconstruct``
is the plain transpose and round trips are exact up to the approximation
error.

``DecompositionOperator`` has two backends, chosen by the system's mode.
``exact`` holds the stacked blocks ``U diag(g_b) U^T`` as one dense array,
built in the Laplacian eigenbasis. ``chebyshev`` holds only the Laplacian
and applies the fitted factor polynomials to the signal by the Chebyshev
recurrence, so it needs neither an eigendecomposition nor any N x N matrix.
``framelet_operator`` builds either from a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import graphs
from .filters import (
    ChebyshevApprox,
    DEFAULT_CHEBYSHEV_DEGREE,
    FilterBank,
    apply_polynomial_to_signal,
    chebyshev_fit,
    haar_filter_bank,
)
from .sparse import SparseMatrix


def compute_K(lambda_max: float, d: float) -> int:
    """Smallest integer K with ``lambda_max <= d^K * pi``.

    Normalizes the Laplacian spectrum into the filters' fundamental domain
    ``[0, pi]``. Negative K is legitimate for spectra compressed below pi/d.
    """
    if not (lambda_max > 0):
        raise ValueError("lambda_max must be positive")
    if not (d > 1):
        raise ValueError("dilation must exceed 1")
    k = math.ceil(math.log(lambda_max / math.pi) / math.log(d))
    # Scrub boundary roundoff from the float logarithm.
    while d ** (k - 1) * math.pi >= lambda_max:
        k -= 1
    while d**k * math.pi < lambda_max:
        k += 1
    return k


@dataclass(frozen=True)
class FrameletSystem:
    """Immutable description of a framelet transform for one Laplacian.

    Parameters
    ----------
    bank : FilterBank
        Low-pass / high-pass masks; tightness requires partition of unity.
    dilation : float
        Scale base d > 1.
    levels : int
        Number of scale levels J >= 1.
    K : int
        Spectral normalizer; must satisfy ``d^K * pi >= lam_max``.
    lam_max : float
        Upper bound on the Laplacian spectrum this system targets.
    degree : int
        Chebyshev degree t used by the approximate path.
    mode : str
        ``"exact"`` (eigenbasis) or ``"chebyshev"`` (matrix-free polynomials).
    """

    bank: FilterBank
    dilation: float = 2.0
    levels: int = 2
    K: int = 0
    lam_max: float = 2.0
    degree: int = DEFAULT_CHEBYSHEV_DEGREE
    mode: str = "exact"

    def __post_init__(self):
        if not (self.dilation > 1):
            raise ValueError("dilation must exceed 1")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.mode not in ("exact", "chebyshev"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.lam_max < 0:
            raise ValueError("lam_max must be nonnegative")
        if self.lam_max > 0 and self.dilation**self.K * math.pi < self.lam_max:
            raise ValueError("K too small for lam_max: d^K * pi < lam_max")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")

    @property
    def num_high(self) -> int:
        return self.bank.num_high

    @property
    def num_blocks(self) -> int:
        return self.num_high * self.levels + 1

    def block_index(self) -> tuple[tuple[int, int], ...]:
        """Canonical block order: low pass (0, J) first, then (r, j) r-major."""
        order: list[tuple[int, int]] = [(0, self.levels)]
        for r in range(1, self.num_high + 1):
            for j in range(1, self.levels + 1):
                order.append((r, j))
        return tuple(order)

    def factor_scale(self, j: int) -> float:
        """Argument scale ``d^{j-1-K}`` of the level-j filter factor."""
        return self.dilation ** (j - 1 - self.K)

    @cached_property
    def factor_fits(
        self,
    ) -> tuple[list[ChebyshevApprox], list[list[ChebyshevApprox]]]:
        """Chebyshev fits of every filter factor, made once per system:
        ``low[j-1]`` is the level-j low-pass factor, ``high[r-1][j-1]`` the
        level-j factor of high pass r."""
        if not (self.lam_max > 0):
            raise ValueError("chebyshev mode needs a positive lam_max bound")
        t, lam_max = self.degree, self.lam_max

        def factor(fn, scale) -> ChebyshevApprox:
            return chebyshev_fit(lambda lam: fn(scale * lam), degree=t, lam_max=lam_max)

        levels = range(1, self.levels + 1)
        low = [factor(self.bank.low_pass, self.factor_scale(j)) for j in levels]
        high = [
            [factor(b, self.factor_scale(j)) for j in levels]
            for b in self.bank.high_passes
        ]
        return low, high


def make_system(
    bank: FilterBank,
    lam_max: float,
    dilation: float = 2.0,
    levels: int = 2,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    mode: str = "exact",
) -> FrameletSystem:
    """Build a ``FrameletSystem`` with K derived from the spectral bound.

    ``lam_max == 0`` (edgeless graph, DC-only spectrum) gets K = 0.
    """
    K = compute_K(lam_max, dilation) if lam_max > 0 else 0
    return FrameletSystem(
        bank=bank,
        dilation=dilation,
        levels=levels,
        K=K,
        lam_max=float(lam_max),
        degree=degree,
        mode=mode,
    )


@dataclass(frozen=True)
class DecompositionOperator:
    """The stacked framelet operator ``W`` of one system on one Laplacian.

    Apply it with ``decompose`` and its transpose with ``reconstruct``. In
    exact mode ``stack`` is the dense ``(B N) x N`` array of the blocks
    ``U diag(g_b) U^T`` in ``block_index`` order, low pass first. In
    Chebyshev mode ``stack`` is None and both products run the system's
    factor polynomials on ``lap`` matrix-free.
    """

    system: FrameletSystem
    lap: SparseMatrix = field(repr=False)
    stack: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.stack is None) != (self.system.mode == "chebyshev"):
            raise ValueError("exact mode needs a dense stack, chebyshev mode none")
        shape = (self.num_rows, self.num_nodes)
        if self.stack is not None and self.stack.shape != shape:
            raise ValueError("stack must be (num blocks * N) x N")

    @cached_property
    def block_index(self) -> tuple[tuple[int, int], ...]:
        return self.system.block_index()

    @property
    def num_nodes(self) -> int:
        return self.lap.num_rows

    @property
    def num_blocks(self) -> int:
        return self.system.num_blocks

    @property
    def num_rows(self) -> int:
        return self.num_blocks * self.num_nodes

    @property
    def provenance(self) -> dict:
        """How the operator was built: mode, degree, K, dilation, levels."""
        s = self.system
        return {
            "mode": s.mode,
            "degree": s.degree,
            "K": s.K,
            "dilation": s.dilation,
            "levels": s.levels,
        }


@dataclass(frozen=True)
class CoefficientStack:
    """Framelet coefficients as a block-stacked matrix.

    ``data`` has ``(nJ+1) * N`` rows and one column per signal feature;
    block b of ``block_index`` owns rows ``[b*N, (b+1)*N)``, low pass first.
    """

    data: np.ndarray = field(repr=False)
    block_index: tuple[tuple[int, int], ...]
    num_nodes: int

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValueError("coefficient data must be 2-d")
        if self.data.shape[0] != len(self.block_index) * self.num_nodes:
            raise ValueError("row count must be (num blocks) * N")
        if not self.block_index or self.block_index[0][0] != 0:
            raise ValueError("low-pass block must come first")

    @property
    def num_blocks(self) -> int:
        return len(self.block_index)

    @property
    def num_features(self) -> int:
        return self.data.shape[1]

    def row_range(self, r: int, j: int) -> tuple[int, int]:
        b = self.block_index.index((r, j))
        return b * self.num_nodes, (b + 1) * self.num_nodes

    def block(self, r: int, j: int) -> np.ndarray:
        lo, hi = self.row_range(r, j)
        return self.data[lo:hi]

    def low_pass(self) -> np.ndarray:
        return self.data[: self.num_nodes]

    def with_data(self, data: np.ndarray) -> "CoefficientStack":
        return CoefficientStack(
            data=data, block_index=self.block_index, num_nodes=self.num_nodes
        )


def _exact_stack(system: FrameletSystem, spectrum: graphs.Spectrum) -> np.ndarray:
    lam = spectrum.values
    J, n = system.levels, system.num_high
    # chain[j] = product of low-pass factor values through level j
    chain = [np.ones_like(lam)]
    for j in range(1, J + 1):
        a_vals = system.bank.low_pass(system.factor_scale(j) * lam)
        chain.append(chain[-1] * a_vals)
    gains = [chain[J]]
    for r in range(1, n + 1):
        b_filter = system.bank.high_passes[r - 1]
        for j in range(1, J + 1):
            gains.append(b_filter(system.factor_scale(j) * lam) * chain[j - 1])
    return np.concatenate([spectrum.matrix_function(g) for g in gains], axis=0)


def build_operators(
    system: FrameletSystem,
    lap: SparseMatrix,
    spectrum: graphs.Spectrum | None = None,
) -> DecompositionOperator:
    """Build the operator of ``system`` for one Laplacian.

    Exact mode requires ``spectrum`` (its eigendecomposition) and stacks
    the dense blocks; Chebyshev mode requires ``system.lam_max > 0`` and
    only fits the factor polynomials.
    """
    n = lap.num_rows
    if lap.num_cols != n:
        raise ValueError("Laplacian must be square")
    if system.mode == "exact":
        if spectrum is None:
            raise ValueError("exact mode requires a spectrum")
        if spectrum.values.shape[0] != n:
            raise ValueError("spectrum size does not match Laplacian")
        return DecompositionOperator(system, lap, _exact_stack(system, spectrum))
    system.factor_fits  # fit once now, so a bad lam_max fails at build time
    return DecompositionOperator(system, lap)


def framelet_operator(
    graph: graphs.Graph,
    dilation: float = 2.0,
    levels: int = 2,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    mode: str = "exact",
) -> DecompositionOperator:
    """Haar framelet operator of a graph's normalized Laplacian.

    The spectral bound is the top eigenvalue of the full spectrum in exact
    mode and the power-iteration estimate of ``graphs.lambda_max`` in
    Chebyshev mode, which never computes a spectrum.
    """
    lap = graphs.normalized_laplacian(graph)
    spectrum = None
    if mode == "exact":
        spectrum = graphs.eigendecompose(lap)
        lam = float(spectrum.values[-1]) if spectrum.values.size else 0.0
    else:
        lam = graphs.lambda_max(lap, "power_iteration")
    system = make_system(haar_filter_bank(), lam, dilation, levels, degree, mode)
    return build_operators(system, lap, spectrum)


def decompose(op: DecompositionOperator, X: np.ndarray) -> CoefficientStack:
    """Forward transform: block b of the output is ``W_b @ X``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != op.num_nodes:
        raise ValueError(f"X must be 2-d with {op.num_nodes} rows")
    if op.stack is None:
        return chebyshev_decompose(op.system, op.lap, X)
    return CoefficientStack(
        data=op.stack @ X, block_index=op.block_index, num_nodes=op.num_nodes
    )


def reconstruct(op: DecompositionOperator, c: CoefficientStack) -> np.ndarray:
    """Inverse transform: ``sum_b W_b^T c_b``, exact by tightness."""
    if c.block_index != op.block_index or c.num_nodes != op.num_nodes:
        raise ValueError("coefficient stack does not match operator")
    if op.stack is None:
        return chebyshev_reconstruct(op.system, op.lap, c)
    return op.stack.T @ c.data


def chebyshev_decompose(
    system: FrameletSystem, lap: SparseMatrix, X: np.ndarray
) -> CoefficientStack:
    """Forward transform applied matrix-free to a signal.

    Runs the per-factor Chebyshev recurrences directly on the signal columns
    with the partial low-pass chain shared across levels, never materializing
    the block operators. Work is ``(n+1) J`` factor applications of ``degree``
    sparse products each, so doubling ``J`` roughly doubles the cost, and
    memory stays at a few N x d arrays.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != lap.num_rows:
        raise ValueError(f"X must be 2-d with {lap.num_rows} rows")
    J, n = system.levels, system.num_high
    low_fits, high_fits = system.factor_fits
    chains = [X]
    for j in range(1, J + 1):
        chains.append(apply_polynomial_to_signal(low_fits[j - 1], lap, chains[-1]))
    parts = [chains[J]]
    for r in range(1, n + 1):
        for j in range(1, J + 1):
            parts.append(
                apply_polynomial_to_signal(high_fits[r - 1][j - 1], lap, chains[j - 1])
            )
    return CoefficientStack(
        data=np.concatenate(parts, axis=0),
        block_index=system.block_index(),
        num_nodes=lap.num_rows,
    )


def chebyshev_reconstruct(
    system: FrameletSystem, lap: SparseMatrix, c: CoefficientStack
) -> np.ndarray:
    """Adjoint transform applied matrix-free to a coefficient stack.

    Every block is a polynomial in the symmetric Laplacian and hence
    symmetric, so the adjoint applies the same factors in reverse level
    order: accumulate from the top level down, multiplying the running sum
    by the level's low-pass factor and adding the level's filtered high-pass
    coefficients. Mirrors ``chebyshev_decompose`` in cost.
    """
    if c.block_index != system.block_index() or c.num_nodes != lap.num_rows:
        raise ValueError("coefficient stack does not match the system")
    J, n = system.levels, system.num_high
    low_fits, high_fits = system.factor_fits

    def level_detail(j: int) -> np.ndarray:
        total = np.zeros((c.num_nodes, c.num_features))
        for r in range(1, n + 1):
            total += apply_polynomial_to_signal(
                high_fits[r - 1][j - 1], lap, c.block(r, j)
            )
        return total

    acc = apply_polynomial_to_signal(low_fits[J - 1], lap, c.low_pass())
    acc += level_detail(J)
    for j in range(J - 1, 0, -1):
        acc = apply_polynomial_to_signal(low_fits[j - 1], lap, acc)
        acc += level_detail(j)
    return acc


def block_energies(c: CoefficientStack) -> dict[tuple[int, int], float]:
    """Squared Frobenius norm of every coefficient block."""
    n = c.num_nodes
    return {
        key: float(np.sum(c.data[b * n : (b + 1) * n] ** 2))
        for b, key in enumerate(c.block_index)
    }
