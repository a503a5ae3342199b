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
built in the Laplacian eigenbasis from ``FrameletSystem.block_gains``.
``chebyshev`` holds only the Laplacian and one fit of every block's gain
on ``[0, 2]`` in ``L - I``, so it needs neither an eigendecomposition nor
any N x N matrix. Every gain is fitted at degree ``t + 4 (J - 1)``, and the
trailing terms that are round-off in every block are chopped (Aurentz &
Trefethen 2017): the dropped terms sum to less than ``CHOP_TOL`` in every
block, and as ``|T_k| <= 1`` no block moves by more than that on
``[0, 2]``. The Haar bank at t = 16, J = 2 and K = 0 keeps degree 15 of 20.
The forward transform runs one Chebyshev recurrence and
accumulates every block's output from it, and the adjoint sums all blocks
in one Clenshaw recurrence (Clenshaw 1955), as spectral graph wavelets read
all their scales off one Chebyshev basis (Hammond, Vandergheynst &
Gribonval 2011). Both recur on ``S = 2(L - I)``, which ``build_operators``
builds once per operator with its explicit zeros dropped: the unit
diagonal cancels, so on a graph without self loops ``S`` stores only the
off-diagonal entries. A forward step is one product by ``S`` and one BLAS
rank-1 update that adds the step's term to all blocks; an adjoint step is
one product by ``S`` and one in-place BLAS axpy per block. Each direction
costs ``recurrence_degree`` sparse products for any number of levels and
high passes: 30 for a default round trip instead of 40 unchopped.
``framelet_operator`` builds either backend from a graph, from the
Laplacian and spectrum or Lanczos estimate that the ``Graph`` caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.chebyshev import chebval
from scipy.linalg.blas import daxpy, dger

from . import graphs
from .filters import (
    DEFAULT_CHEBYSHEV_DEGREE,
    FilterBank,
    chebyshev_fit,
    haar_filter_bank,
)
from .sparse import SparseMatrix

# The chop drops trailing Chebyshev terms of the block fits while their
# magnitudes sum to less than this in every block, so it is also the most
# any block's polynomial moves on [0, 2].
CHOP_TOL = 1e-14


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
        Top of the Laplacian spectrum, exact or estimated; it sets K only.
        Chebyshev fits use the certified interval ``[0, 2]``.
    degree : int
        Chebyshev degree t of one level's factors. A block at level J is a
        product of up to J dilated factors and needs more degree for the
        same accuracy, so the Chebyshev backend fits every block's gain
        directly at ``t + 4 (J - 1)`` and then chops the terms that are
        round-off in every block; ``recurrence_degree`` is what is left,
        15 of 20 at t = 16, J = 2 and K = 0 (30 sparse products per round
        trip instead of 40).
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

    def block_gains(self, lam) -> np.ndarray:
        """Every block's gain at the eigenvalues ``lam``: a ``(B, len(lam))``
        array in ``block_index`` order, the low-pass chain through level J
        first, then ``b_r(d^{j-1-K} lam)`` times the chain below level j."""
        lam = np.asarray(lam, dtype=np.float64)
        # chain[j] = product of low-pass factor values through level j
        chain = [np.ones_like(lam)]
        for j in range(1, self.levels + 1):
            chain.append(chain[-1] * self.bank.low_pass(self.factor_scale(j) * lam))
        return np.array([chain[-1]] + [
            b(self.factor_scale(j) * lam) * chain[j - 1]
            for b in self.bank.high_passes
            for j in range(1, self.levels + 1)
        ])

    @property
    def recurrence_degree(self) -> int:
        """Degree of the chopped block fits, the number of sparse products
        in each direction: 15 at t = 16, J = 2 and K = 0, so 30 per round
        trip. At most ``t + 4 (J - 1)``, the fitted degree, which at
        dilations 1.25 to 4, J <= 8 and K in {0, -1, -2} is as accurate,
        up to rounding, as products of the levels' factors fitted at degree
        t in {5, 8, 16}."""
        return self.chebyshev_coeffs.shape[1] - 1

    @cached_property
    def chebyshev_coeffs(self) -> np.ndarray:
        """Chebyshev coefficients of every block's gain: a ``(B,
        recurrence_degree + 1)`` array in ``block_index`` order.

        One evaluation at the Chebyshev nodes fits every gain at degree
        ``t + 4 (J - 1)``. Trailing columns are then dropped, at least one
        kept, while the dropped columns' largest magnitudes sum to less than
        ``CHOP_TOL``, so no block's polynomial moves by more than that on
        ``[0, 2]``. The cut is read off the coefficients because it moves
        with d, K and J.
        """
        coeffs = chebyshev_fit(self.block_gains, self.degree + 4 * (self.levels - 1))
        # tail[k]: sum over the columns from k on of their largest magnitude
        tail = np.cumsum(np.max(np.abs(coeffs), axis=0)[::-1])[::-1]
        keep = max(1, int(np.count_nonzero(tail >= CHOP_TOL)))
        return coeffs[:, :keep]

    @cached_property
    def fit_residual(self) -> float:
        """Measured tightness of the Chebyshev fits: the max over 1001
        points of [0, 2] of ``|sum_b p_b(lam)^2 - 1|``."""
        grid = np.linspace(0.0, 2.0, 1001)
        p = chebval(grid - 1.0, self.chebyshev_coeffs.T)
        return float(np.max(np.abs(np.sum(p**2, axis=0) - 1.0)))


def make_system(
    bank: FilterBank,
    lam_max: float,
    dilation: float = 2.0,
    levels: int = 2,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    mode: str = "exact",
) -> FrameletSystem:
    """Build a ``FrameletSystem`` with K derived from the top eigenvalue.

    ``lam_max == 0`` (edgeless graph, DC-only spectrum) gets K = 0.
    """
    K = compute_K(lam_max, dilation) if lam_max > 0 else 0
    return FrameletSystem(bank=bank, dilation=dilation, levels=levels, K=K,
                          lam_max=float(lam_max), degree=degree, mode=mode)


@dataclass(frozen=True)
class DecompositionOperator:
    """The stacked framelet operator ``W`` of one system on one Laplacian.

    Apply it with ``decompose`` and its transpose with ``reconstruct``. In
    exact mode ``stack`` is the dense ``(B N) x N`` array of the blocks
    ``U diag(g_b) U^T`` in ``block_index`` order, low pass first, and
    ``recurrence`` is None. In Chebyshev mode ``stack`` is None and
    ``recurrence`` holds ``S = 2(L - I)``, built once from ``lap``: both
    products run the system's block polynomials on it matrix-free.
    """

    system: FrameletSystem
    lap: SparseMatrix = field(repr=False)
    stack: np.ndarray | None = field(default=None, repr=False)
    recurrence: SparseMatrix | None = field(default=None, repr=False)

    def __post_init__(self):
        chebyshev = self.system.mode == "chebyshev"
        if (self.stack is None) != chebyshev:
            raise ValueError("exact mode needs a dense stack, chebyshev mode none")
        if (self.recurrence is None) == chebyshev:
            raise ValueError("chebyshev mode needs a recurrence matrix, exact mode none")
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
    def operator_bytes(self) -> int:
        """Bytes the operator holds for its products: the dense stack in
        exact mode, the CSR arrays of ``S`` in Chebyshev mode (12 nnz(S) +
        4 (N + 1) with 32-bit indices)."""
        if self.stack is not None:
            return self.stack.nbytes
        s = self.recurrence.csr
        return s.data.nbytes + s.indices.nbytes + s.indptr.nbytes

    @property
    def provenance(self) -> dict:
        """How the operator was built: mode, degree, K, dilation, levels,
        ``operator_bytes``, and in Chebyshev mode ``recurrence_degree`` and
        ``fit_residual``."""
        s = self.system
        out = {"mode": s.mode, "degree": s.degree, "K": s.K,
               "dilation": s.dilation, "levels": s.levels,
               "operator_bytes": self.operator_bytes}
        if s.mode == "chebyshev":
            out["recurrence_degree"] = s.recurrence_degree
            out["fit_residual"] = s.fit_residual
        return out


@dataclass(frozen=True)
class CoefficientStack:
    """Framelet coefficients as a block-stacked matrix.

    ``data`` has ``B * N`` rows, one block of N rows for each of the
    ``B = nJ + 1`` entries of ``block_index`` (low pass first), and one
    column per signal feature. ``blocks`` views it as a ``(B, N, d)``
    array; every per-block reader goes through that view, and per-block
    quantities such as ``block_energies`` and the shrinkage thresholds are
    ``(B,)`` arrays in block order.
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

    @property
    def blocks(self) -> np.ndarray:
        """``data`` as a ``(B, N, d)`` array, a view when ``data`` is
        C-contiguous; block b is ``blocks[b]``."""
        return self.data.reshape(self.num_blocks, self.num_nodes, self.num_features)

    def block(self, r: int, j: int) -> np.ndarray:
        return self.blocks[self.block_index.index((r, j))]

    def low_pass(self) -> np.ndarray:
        return self.blocks[0]

    def with_data(self, data: np.ndarray) -> "CoefficientStack":
        return CoefficientStack(
            data=data, block_index=self.block_index, num_nodes=self.num_nodes
        )


def _exact_stack(system: FrameletSystem, spectrum: graphs.Spectrum) -> np.ndarray:
    gains = system.block_gains(spectrum.values)
    return np.concatenate([spectrum.matrix_function(g) for g in gains], axis=0)


def build_operators(
    system: FrameletSystem,
    lap: SparseMatrix,
    spectrum: graphs.Spectrum | None = None,
) -> DecompositionOperator:
    """Build the operator of ``system`` for one Laplacian.

    Exact mode requires ``spectrum`` (its eigendecomposition) and stacks
    the dense blocks; Chebyshev mode fits the block polynomials and builds
    the recurrence matrix ``S = 2(L - I)`` that every product reuses.
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
    system.chebyshev_coeffs  # fit once now, not on the first product
    return DecompositionOperator(system, lap, recurrence=_recurrence_matrix(lap))


def framelet_operator(
    graph: graphs.Graph,
    dilation: float = 2.0,
    levels: int = 2,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    mode: str = "exact",
) -> DecompositionOperator:
    """Haar framelet operator of a graph's normalized Laplacian.

    K comes from the top eigenvalue of the full spectrum in exact mode and
    from the Lanczos estimate of ``graphs.lambda_max`` in Chebyshev mode,
    which never computes a spectrum. The estimate sets K only; the
    Chebyshev fits use the certified interval ``[0, 2]``.

    The Laplacian, spectrum and estimate are the graph's cached
    ``laplacian``, ``spectrum`` and ``lanczos_bound``: every operator built
    from one ``Graph`` object, in either mode and at any dilation, levels
    or degree, shares one Laplacian and one eigendecomposition or Lanczos
    run, kept as long as the graph lives. The graph must not be mutated.
    """
    lap = graph.laplacian
    spectrum = None
    if mode == "exact":
        spectrum = graph.spectrum
        lam = float(spectrum.values[-1]) if spectrum.values.size else 0.0
    else:
        lam = graph.lanczos_bound
    system = make_system(haar_filter_bank(), lam, dilation, levels, degree, mode)
    return build_operators(system, lap, spectrum)


def decompose(op: DecompositionOperator, X: np.ndarray) -> CoefficientStack:
    """Forward transform: block b of the output is ``W_b @ X``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != op.num_nodes:
        raise ValueError(f"X must be 2-d with {op.num_nodes} rows")
    if op.stack is None:
        return chebyshev_decompose(op.system, op.lap, X, recurrence=op.recurrence)
    return CoefficientStack(
        data=op.stack @ X, block_index=op.block_index, num_nodes=op.num_nodes
    )


def reconstruct(op: DecompositionOperator, c: CoefficientStack) -> np.ndarray:
    """Inverse transform: ``sum_b W_b^T c_b``, exact by tightness."""
    if c.block_index != op.block_index or c.num_nodes != op.num_nodes:
        raise ValueError("coefficient stack does not match operator")
    if op.stack is None:
        return chebyshev_reconstruct(op.system, op.lap, c, recurrence=op.recurrence)
    return op.stack.T @ c.data


def _recurrence_matrix(lap: SparseMatrix) -> SparseMatrix:
    """``S = 2(L - I)``, the matrix both Chebyshev recurrences multiply by,
    with explicit zeros dropped. A normalized Laplacian's unit diagonal
    cancels exactly, so only self loops leave diagonal entries in ``S``."""
    s = 2.0 * (lap.csr - sp.eye_array(lap.num_rows, format="csr"))
    s.eliminate_zeros()
    return SparseMatrix.from_scipy(s)


def _axpy_blocks(coeffs: list[float], flat: np.ndarray, y: np.ndarray) -> None:
    """``y += sum_b coeffs[b] * flat[b]`` in place: one BLAS axpy per block
    and no temporary.

    ``flat`` holds one C-contiguous float64 row per block, each of ``y``'s
    size, and ``y`` must be C-contiguous float64. A flat view of any other
    layout would be a copy and the update would be lost, so the reshape
    refuses to copy and raises instead.
    """
    y_flat = y.reshape(-1, copy=False)
    if y_flat.size:
        for a, x in zip(coeffs, flat):
            daxpy(x, y_flat, a=a)


def chebyshev_decompose(
    system: FrameletSystem,
    lap: SparseMatrix,
    X: np.ndarray,
    *,
    recurrence: SparseMatrix | None = None,
) -> CoefficientStack:
    """Forward transform applied matrix-free to a signal.

    One Chebyshev recurrence ``T_k(L - I) X`` serves all B blocks. A step
    is one product by ``S = 2(L - I)``, one subtraction and one BLAS rank-1
    update that adds ``c_{b,k} T_k`` to every block b at once, so work is
    ``recurrence_degree`` sparse products, and memory stays at a few N x d
    arrays besides the output. ``recurrence`` is the operator's ``S``;
    without it ``S`` is built from ``lap`` on every call. ``X`` is only
    read and may have any memory layout.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != lap.num_rows:
        raise ValueError(f"X must be 2-d with {lap.num_rows} rows")
    S = _recurrence_matrix(lap) if recurrence is None else recurrence
    index = system.block_index()
    coeffs = system.chebyshev_coeffs
    # Row k holds step k's coefficients, contiguous, as dger reads them.
    steps = np.ascontiguousarray(coeffs.T)
    # C-contiguous output whatever the layout of X. Flattened, block b is
    # column b of the Fortran-ordered (N d) x B matrix ``columns``, a view,
    # so dger updates the output in place.
    data = np.empty((len(index) * X.shape[0], X.shape[1]))
    blocks = data.reshape(len(index), *X.shape)
    columns = data.reshape(len(index), -1, copy=False).T
    for out, c in zip(blocks, steps[0]):
        np.multiply(X, c, out=out)
    t_prev, t_cur = None, X
    for k in range(1, len(steps)):
        # T_k = S T_{k-1} - T_{k-2}, with T_1 = S T_0 / 2
        t_next = S @ t_cur
        if t_prev is None:
            t_next *= 0.5
        else:
            t_next -= t_prev
        t_prev, t_cur = t_cur, t_next
        if data.size:
            dger(1.0, t_cur.ravel(), steps[k], a=columns, overwrite_a=True)
    return CoefficientStack(data=data, block_index=index, num_nodes=lap.num_rows)


def chebyshev_reconstruct(
    system: FrameletSystem,
    lap: SparseMatrix,
    c: CoefficientStack,
    *,
    recurrence: SparseMatrix | None = None,
) -> np.ndarray:
    """Adjoint transform applied matrix-free to a coefficient stack.

    Every block is a polynomial in the symmetric Laplacian and hence
    symmetric, so the adjoint is ``sum_b p_b(L) C_b`` over the blocks
    ``C_b``. All blocks share one basis, so that is ``sum_k T_k(L - I) w_k``
    with ``w_k = sum_b c_{b,k} C_b``, summed by one Clenshaw recurrence with
    each ``w_k`` added in place, one axpy per block, into the step's product
    by ``S = 2(L - I)``. Mirrors ``chebyshev_decompose`` in cost and in its
    use of ``recurrence``; ``c`` is only read.
    """
    if c.block_index != system.block_index() or c.num_nodes != lap.num_rows:
        raise ValueError("coefficient stack does not match the system")
    S = _recurrence_matrix(lap) if recurrence is None else recurrence
    # One flat row per block, C-contiguous, as _axpy_blocks needs.
    blocks = np.ascontiguousarray(c.blocks, dtype=np.float64)
    flat = blocks.reshape(len(blocks), -1)
    # steps[k]: step k's coefficients, one per block.
    steps = system.chebyshev_coeffs.T.tolist()
    t = len(steps) - 1
    # b_k = w_k + S b_{k+1} - b_{k+2}, started at b_t = w_t; the sum is
    # w_0 + S b_1 / 2 - b_2.
    b, b_next = blocks[0] * steps[t][0], None
    _axpy_blocks(steps[t][1:], flat[1:], b)
    for k in range(t - 1, -1, -1):
        y = S @ b
        if k == 0:
            y *= 0.5
        _axpy_blocks(steps[k], flat, y)
        if b_next is not None:
            y -= b_next
        b, b_next = y, b
    return b


def block_energies(c: CoefficientStack) -> np.ndarray:
    """Squared Frobenius norm of every coefficient block: a ``(B,)`` array
    in ``block_index`` order."""
    return np.sum(c.blocks**2, axis=(1, 2))
