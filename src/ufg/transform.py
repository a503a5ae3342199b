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
The eigenbasis comes from LAPACK's divide-and-conquer solver (see
``graphs.eigendecompose``), whose solve peaks at about 3 N^2 doubles, and
each block is a symmetric rank-k product (BLAS ``dsyrk``, N^3 flops
against a general product's 2 N^3) into one triangle of its rows of the
stack, mirrored into the other: blocks are symmetric bit for bit, and the
build holds the stack and one N x N temporary.
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
off-diagonal entries. Each recurrence works in place on one ``(2, N, d)``
array, whose two slots hold its latest two terms up to sign, and its
operands are checked once per call (``_kernel_operands``). A step is one
bare call of SciPy's sparse kernel, which adds ``S`` or ``-S`` times one
slot into the other with no temporary, zero fill or subtraction. The
blocks are updated once per two steps: after an odd step both slots carry
the same sign, so one BLAS-3 product (``dgemm``) adds both terms to all B
blocks (forward) or ``w_k`` and ``w_{k-1}`` to the two slots (adjoint),
and an odd number of terms leaves one lone term to a product of its own.
Counting every array entry a call reads or writes once, the block updates
of a default round trip (16 terms, B = 3) move 117 N d doubles, against
191 N d with one BLAS-2 update per term. Each direction costs
``recurrence_degree`` sparse products for any number of levels and high
passes: 30 for a default round trip instead of 40 unchopped.

Large products use every usable CPU (the process's affinity mask, so
``taskset`` narrows it; the BLAS thread variables do not). When nnz(S)
times the signal width d exceeds ``SPLIT_WORK`` and ``min(CPUs, d // 8)``
is at least 2, both recurrences split the columns into that many
contiguous groups. Each group runs the whole recurrence on its own
work arrays with no waits between steps: the calling thread takes the
first group and threads made for the call the others, and the groups'
outputs are then joined into one C-contiguous array. Columns never
mix in either recurrence, and every kernel computes an entry of a column
the same way whatever the width, except where BLAS treats the last rows
of a flat vector apart. In OpenBLAS 0.3.30 gemv does so for the last
``len mod 4`` and the Haswell kernel's ger for the last ``len mod 16``,
while every row of a dgemm came out the same at any row count and offset
(3 to 4e4 rows, inner dimension 1 to 5, on its SkylakeX, Haswell and
Sandybridge kernels). So every block update is a dgemm, the forward's
lone last term included. The one BLAS-2 call left is the dgemv of the
adjoint's lone top term, and every group but the last starts and ends on
a multiple of 8 columns, so its flat length has no gemv tail, and the
last group's tail is the full width's. So with BLAS on one thread the output is bitwise the one-group
result on any number of CPUs. A multi-threaded BLAS splits each flat
vector among its own threads at points that move with the length, so its
last bits already depend on the BLAS thread count, split or not. Below the
crossover the single loop runs as it is, on the calling thread alone.

``framelet_operator`` builds either backend from a graph, from the
Laplacian, Lanczos estimate and (in exact mode) spectrum that the ``Graph``
caches; K comes from the Lanczos estimate in both modes, so the two
backends of one graph approximate the same transform. The graph also keeps
the operator built for its latest settings, so a second call with those
settings builds nothing; the arrays an operator builds are read-only.
``DecompositionOperator.restrict`` gives the operator for signals that
live on a subset of the nodes, such as the labelled nodes a training loss
reads.

Coefficients are a plain C-contiguous ``(B, N, d)`` array, block b at
``[b]`` in ``block_index`` order with the low pass at 0. ``decompose``
returns one; ``reconstruct``, shrinkage, pooling and the coefficient file
take one, and a per-block quantity is an operation on its first axis.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.linalg.blas import dgemm, dgemv
from scipy.sparse._sparsetools import csr_matvecs

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

# The two backends of ``DecompositionOperator``; the order is the mode code
# of the ``.ufgc`` header.
MODES = ("exact", "chebyshev")

# A Chebyshev recurrence splits its signal's columns into groups, each run
# on its own thread, when nnz(S) times the signal width exceeds SPLIT_WORK
# and at least two groups of GROUP_MIN_COLUMNS columns fit: 8 float64 fill
# one 64-byte cache line.
SPLIT_WORK = 500_000
GROUP_MIN_COLUMNS = 8

def compute_K(lambda_max: float, d: float) -> int:
    """Smallest integer K with ``lambda_max <= d^K * pi``, or 0 when
    ``lambda_max == 0`` (an edgeless graph's DC-only spectrum).

    Normalizes the Laplacian spectrum into the filters' fundamental domain
    ``[0, pi]``. Negative K is legitimate for spectra compressed below pi/d.
    """
    if not (lambda_max >= 0):
        raise ValueError(f"lambda_max must be nonnegative, got {lambda_max!r}")
    if not (d > 1):
        raise ValueError("dilation must exceed 1")
    if lambda_max == 0:
        return 0
    k = math.ceil(math.log(lambda_max / math.pi) / math.log(d))
    # Scrub boundary roundoff from the float logarithm.
    while d ** (k - 1) * math.pi >= lambda_max:
        k -= 1
    while d**k * math.pi < lambda_max:
        k += 1
    return k


@dataclass(frozen=True)
class TransformSettings:
    """The four settings of a framelet transform besides its filter bank,
    checked once for any graph: the dilation d, a finite float > 1; the
    levels J >= 1 and the Chebyshev degree t >= 0 of one level's factors,
    integers stored as ``int``; and the mode, ``"exact"`` (eigenbasis) or
    ``"chebyshev"`` (matrix-free). The top filter argument ``d^(J-1-K) * 2``
    must be finite at K = 0, the largest K of a normalized Laplacian. A
    refused setting raises ``ValueError`` naming it."""

    dilation: float = 2.0
    levels: int = 2
    degree: int = DEFAULT_CHEBYSHEV_DEGREE
    mode: str = "exact"

    def __post_init__(self):
        for name in ("levels", "degree"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "dilation", float(self.dilation))
        if not (1 < self.dilation < math.inf):
            raise ValueError("dilation must be finite and exceed 1")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        self._check_top_argument(0)

    def _check_top_argument(self, K: int) -> None:
        """Raise ``ValueError`` unless ``d^(J-1-K) * 2`` is finite."""
        try:
            finite = math.isfinite(self.dilation ** (self.levels - 1 - K) * 2.0)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"dilation {self.dilation!r} overflows the top filter "
                             f"argument d^(J-1-K) * 2 at J = {self.levels}, K = {K}")


@dataclass(frozen=True)
class FrameletSystem:
    """Immutable description of a framelet transform for one Laplacian.

    Parameters
    ----------
    bank : FilterBank
        Low-pass / high-pass masks; tightness requires partition of unity.
    settings : TransformSettings
        The settings, whose top filter argument must be finite at this K too.
    lam_max : float
        Top of the Laplacian spectrum, exact or estimated, finite and >= 0.
        It sets only the spectral normalizer ``K``, which is derived from
        it and never given, ``compute_K(lam_max, dilation)``. Chebyshev fits
        use the certified interval ``[0, 2]``.
    """

    bank: FilterBank
    settings: TransformSettings = TransformSettings()
    lam_max: float = 2.0

    def __post_init__(self):
        if not (0 <= self.lam_max < math.inf):
            raise ValueError(f"lam_max must be finite and nonnegative, got {self.lam_max!r}")
        self.settings._check_top_argument(self.K)

    @cached_property
    def K(self) -> int:
        """Spectral normalizer: ``compute_K(lam_max, dilation)``."""
        return compute_K(self.lam_max, self.settings.dilation)

    @property
    def num_high(self) -> int:
        return self.bank.num_high

    @property
    def num_blocks(self) -> int:
        return self.num_high * self.settings.levels + 1

    def block_index(self) -> tuple[tuple[int, int], ...]:
        """Canonical block order: low pass (0, J) first, then (r, j) r-major."""
        J = self.settings.levels
        order: list[tuple[int, int]] = [(0, J)]
        for r in range(1, self.num_high + 1):
            for j in range(1, J + 1):
                order.append((r, j))
        return tuple(order)

    def factor_scale(self, j: int) -> float:
        """Argument scale ``d^{j-1-K}`` of the level-j filter factor."""
        return self.settings.dilation ** (j - 1 - self.K)

    def block_gains(self, lam) -> np.ndarray:
        """Every block's gain at the eigenvalues ``lam``: a ``(B, len(lam))``
        array in ``block_index`` order, the low-pass chain through level J
        first, then ``b_r(d^{j-1-K} lam)`` times the chain below level j."""
        lam = np.asarray(lam, dtype=np.float64)
        J = self.settings.levels
        # chain[j] = product of low-pass factor values through level j
        chain = [np.ones_like(lam)]
        for j in range(1, J + 1):
            chain.append(chain[-1] * self.bank.low_pass(self.factor_scale(j) * lam))
        return np.array([chain[-1]] + [
            b(self.factor_scale(j) * lam) * chain[j - 1]
            for b in self.bank.high_passes
            for j in range(1, J + 1)
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
        t, J = self.settings.degree, self.settings.levels
        coeffs = chebyshev_fit(self.block_gains, t + 4 * (J - 1))
        # tail[k]: sum over the columns from k on of their largest magnitude
        tail = np.cumsum(np.max(np.abs(coeffs), axis=0)[::-1])[::-1]
        keep = max(1, int(np.count_nonzero(tail >= CHOP_TOL)))
        kept = coeffs[:, :keep]
        graphs._freeze(kept)  # every operator of the system reads it
        return kept

    @cached_property
    def fit_residual(self) -> float:
        """Measured tightness of the Chebyshev fits: the max over 1001
        points of [0, 2] of ``|sum_b p_b(lam)^2 - 1|``."""
        grid = np.linspace(0.0, 2.0, 1001)
        p = chebval(grid - 1.0, self.chebyshev_coeffs.T)
        return float(np.max(np.abs(np.sum(p**2, axis=0) - 1.0)))


# Kept under these names only because the benchmark workloads call them:
# construct ``FrameletSystem`` and apply ``decompose``/``reconstruct`` to
# ``build_operators``' operator instead. Each ``chebyshev_*`` call builds
# an operator, and so ``S``, anew.
def make_system(bank: FilterBank, lam_max: float, **settings) -> FrameletSystem:
    """``FrameletSystem`` with ``lam_max`` first and its ``TransformSettings``
    as keywords."""
    return FrameletSystem(bank, TransformSettings(**settings), float(lam_max))


def chebyshev_decompose(system: FrameletSystem, lap: SparseMatrix, X) -> np.ndarray:
    return decompose(build_operators(system, lap), X)


def chebyshev_reconstruct(system: FrameletSystem, lap: SparseMatrix, c) -> np.ndarray:
    return reconstruct(build_operators(system, lap), c)


@dataclass(frozen=True)
class DecompositionOperator:
    """The stacked framelet operator ``W`` of one system on one Laplacian.

    Apply it with ``decompose`` and its transpose with ``reconstruct``. In
    exact mode ``stack`` is the dense ``(B N) x N`` array of the blocks
    ``U diag(g_b) U^T`` in ``block_index`` order, low pass first, and
    ``recurrence`` is None. In Chebyshev mode ``stack`` is None and
    ``recurrence`` holds ``S = 2(L - I)``, built once from ``lap``: both
    products run the system's block polynomials on it matrix-free.

    ``rows`` is None, or the sorted node indices of a restricted operator
    (see ``restrict``): ``W P`` for the ``N x n`` selection ``P`` of those
    nodes. Its ``decompose`` reads an ``n x d`` signal on them, its
    ``reconstruct`` returns only those n rows, and its coefficients keep
    all N nodes. In exact mode ``stack`` is then the ``(B N) x
    n`` gather of the full stack's columns.

    One operator may serve many callers (see ``framelet_operator``), so the
    arrays ``build_operators`` and ``restrict`` make for it, the stack and
    the CSR arrays of ``S``, are read-only: a write into one raises
    ``ValueError``.
    """

    system: FrameletSystem
    lap: SparseMatrix = field(repr=False)
    stack: np.ndarray | None = field(default=None, repr=False)
    recurrence: SparseMatrix | None = field(default=None, repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        chebyshev = self.system.settings.mode == "chebyshev"
        if (self.stack is None) != chebyshev:
            raise ValueError("exact mode needs a dense stack, chebyshev mode none")
        if (self.recurrence is None) == chebyshev:
            raise ValueError("chebyshev mode needs a recurrence matrix, exact mode none")
        shape = (self.num_rows, self.num_signal_rows)
        if self.stack is not None and self.stack.shape != shape:
            raise ValueError("stack must be (num blocks * N) x (signal rows)")

    def restrict(self, rows) -> "DecompositionOperator":
        """The operator for signals on the nodes ``rows`` only: ``W P``.

        ``rows`` must be a nonempty 1-d integer array, strictly increasing
        and within ``[0, N)``, and this operator must not be restricted
        already. ``decompose`` of the result equals ``decompose`` of the
        signal zero-padded to all N nodes, and its ``reconstruct`` equals
        rows ``rows`` of the full reconstruction: bitwise in Chebyshev
        mode, which scatters and gathers around the unchanged recurrences
        on the shared ``S``, and up to GEMM reassociation in exact mode,
        whose stack columns are gathered here, once.
        """
        if self.rows is not None:
            raise ValueError("operator is already restricted")
        rows = np.asarray(rows)
        integer = np.issubdtype(rows.dtype, np.integer)
        if rows.ndim != 1 or rows.size == 0 or not integer:
            raise ValueError("rows must be a nonempty 1-d integer array")
        if rows.min() < 0 or rows.max() >= self.num_nodes:
            raise ValueError(f"rows must lie in [0, {self.num_nodes})")
        if np.any(rows[1:] <= rows[:-1]):
            raise ValueError("rows must be strictly increasing")
        rows = rows.astype(np.intp)
        rows.flags.writeable = False
        # C-contiguous like the full stack (``stack[:, rows]`` would be
        # Fortran-ordered), so BLAS sums in the same order and every row
        # reproduces the full products bitwise.
        stack = self.stack
        if stack is not None:
            stack = stack.take(rows, axis=1)
            graphs._freeze(stack)
        return DecompositionOperator(
            self.system, self.lap, stack, self.recurrence, rows
        )

    @cached_property
    def block_index(self) -> tuple[tuple[int, int], ...]:
        return self.system.block_index()

    @property
    def num_nodes(self) -> int:
        return self.lap.num_rows

    @property
    def num_signal_rows(self) -> int:
        """Rows of the signals ``decompose`` reads and ``reconstruct``
        returns: ``len(rows)`` when restricted, else N."""
        return self.num_nodes if self.rows is None else self.rows.size

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
        """How the operator was built: its settings, K and ``operator_bytes``,
        and in Chebyshev mode ``recurrence_degree`` and ``fit_residual``."""
        s = self.system
        out = {**asdict(s.settings), "K": s.K, "operator_bytes": self.operator_bytes}
        if s.settings.mode == "chebyshev":
            out["recurrence_degree"] = s.recurrence_degree
            out["fit_residual"] = s.fit_residual
        return out


def _exact_stack(system: FrameletSystem, spectrum: graphs.Spectrum) -> np.ndarray:
    """The dense ``(B N) x N`` stack: block b is ``spectrum.matrix_function``
    of the b-th gain, bit for bit, written into its rows in place by the
    same symmetric rank-k build (``dsyrk`` into one triangle, then a mirror
    that assigns the other), so each block is exactly symmetric, costs N^3
    flops, and the build holds the stack and one N x N temporary."""
    gains = system.block_gains(spectrum.values)
    n = spectrum.values.size
    stack = np.empty((len(gains) * n, n))
    for g, block in zip(gains, stack.reshape(len(gains), n, n)):
        spectrum._write_function(g, block)
    return stack


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
    if lap.csr.shape[1] != n:
        raise ValueError("Laplacian must be square")
    if system.settings.mode == "exact":
        if spectrum is None:
            raise ValueError("exact mode requires a spectrum")
        if spectrum.values.shape[0] != n:
            raise ValueError("spectrum size does not match Laplacian")
        stack = _exact_stack(system, spectrum)
        graphs._freeze(stack)
        return DecompositionOperator(system, lap, stack)
    system.chebyshev_coeffs  # fit once now, not on the first product
    S = _recurrence_matrix(lap)
    graphs._freeze(S.csr.data, S.csr.indices, S.csr.indptr)
    return DecompositionOperator(system, lap, recurrence=S)


def framelet_operator(
    graph: graphs.Graph, settings: TransformSettings = TransformSettings()
) -> DecompositionOperator:
    """Haar framelet operator of a graph's normalized Laplacian.

    K comes from one bound on the top eigenvalue in both modes: the
    Lanczos estimate of ``graphs.lambda_max``, so the exact and Chebyshev
    operators of one graph are the same transform. The estimate sets K
    only; the Chebyshev fits use the certified interval ``[0, 2]``, and
    only exact mode computes the full spectrum, to build its dense stack.

    The Laplacian, estimate and spectrum are the graph's cached
    ``laplacian``, ``lanczos_bound`` and ``spectrum``: every operator built
    from one ``Graph`` object, in either mode and at any dilation, levels
    or degree, shares one Laplacian, one Lanczos run and at most one
    eigendecomposition, kept as long as the graph lives. The graph also
    keeps the operator itself, in its ``cached`` slot: a call with settings
    equal to those of the kept operator returns that very object, and a
    call with other settings builds one and replaces it. The graph's
    adjacency and caches and the operator's arrays are read-only.
    """

    def build() -> DecompositionOperator:
        spectrum = graph.spectrum if settings.mode == "exact" else None
        system = FrameletSystem(haar_filter_bank(), settings, graph.lanczos_bound)
        return build_operators(system, graph.laplacian, spectrum)

    return graph.cached(settings, build)


def decompose(op: DecompositionOperator, X: np.ndarray) -> np.ndarray:
    """Forward transform: the C-contiguous ``(B, N, d)`` coefficients whose
    block b is ``W_b @ X``, in ``block_index`` order with the low pass at
    0. With a restricted operator X lives on its ``rows`` and the output
    still has all N nodes. ``X`` is only read and may have any memory
    layout.

    In Chebyshev mode one recurrence ``T_k(L - I) X`` serves all B blocks:
    each step is one in-place sparse product that adds ``S T_{k-1}`` or
    ``-S T_{k-1}`` to the array holding ``T_{k-2}``, and after every odd
    step k one BLAS-3 product adds ``c_{b,k-1} T_{k-1} + c_{b,k} T_k`` to
    every block b at once; an odd number of terms ends with a product of
    the last term alone. Work is ``recurrence_degree`` sparse products and
    half as many block updates, and memory is two N x d work arrays besides
    the output.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != op.num_signal_rows:
        raise ValueError(f"X must be 2-d with {op.num_signal_rows} rows")
    if op.stack is not None:
        return (op.stack @ X).reshape(op.num_blocks, op.num_nodes, X.shape[1])
    if op.rows is not None:
        padded = np.zeros((op.num_nodes, X.shape[1]))
        padded[op.rows] = X
        X = padded
    return _by_column_groups(op, _decompose_columns, X)


def reconstruct(op: DecompositionOperator, c: np.ndarray) -> np.ndarray:
    """Inverse transform of the ``(B, N, d)`` coefficients ``c``: ``sum_b
    W_b^T c[b]``, exact by tightness; only the operator's ``rows`` when it
    is restricted. ``c`` is only read and may be any view.

    Every block is a polynomial in the symmetric Laplacian and hence
    symmetric, so in Chebyshev mode the adjoint is ``sum_k T_k(L - I) w_k``
    with ``w_k = sum_b c_{b,k} c[b]``, summed by one Clenshaw recurrence.
    Each step is an in-place sparse product that adds ``S b_{k+1}`` or
    ``-S b_{k+1}`` to the array of ``b_{k+2}``. Steps k (odd) and k - 1
    share one BLAS-3 product over all blocks, which adds ``w_k`` and
    ``w_{k-1}`` to their arrays between their sparse products; an odd
    number of terms starts with a matrix-vector product that adds the top
    ``w_k`` alone. Its cost is that of ``decompose``.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 3 or c.shape[:2] != (op.num_blocks, op.num_nodes):
        raise ValueError(f"coefficient array does not match the operator: shape "
                         f"{c.shape}, need ({op.num_blocks}, {op.num_nodes}, d)")
    if op.stack is not None:
        return op.stack.T @ c.reshape(op.num_rows, c.shape[2])
    out = _by_column_groups(op, _reconstruct_columns, c)
    return out if op.rows is None else out[op.rows]


def _recurrence_matrix(lap: SparseMatrix) -> SparseMatrix:
    """``S = 2(L - I)``, the matrix both Chebyshev recurrences multiply by,
    with explicit zeros dropped. A normalized Laplacian's unit diagonal
    cancels exactly, so only self loops leave diagonal entries in ``S``; a
    row with no stored diagonal in ``L`` gets -2."""
    L = lap.csr
    indptr, indices, data = graphs._with_diagonal(
        L, L.data * 2.0, lambda diag: (diag - 1.0) * 2.0
    )
    return graphs._csr(L.shape, indptr, indices, data)


def _kernel_operands(S: SparseMatrix, terms):
    """Every operand of one recurrence's kernel calls, checked once: the
    CSR arrays of ``S``, the values of ``-S``, ``S`` and ``S / 2``, and
    flat views of the two work arrays ``terms``.

    SciPy's sparse kernel ``csr_matvecs`` (what ``S @ x`` runs into zeros)
    trusts the sizes it is given, and it and BLAS would update a copy for
    a flat view of any other layout, so anything but float64 values with
    nnz(S) entries, ``S`` N x N for an N-row signal, and C-contiguous,
    writeable float64 N x d work arrays raises here.
    """
    S = S.csr
    values = (-S.data, S.data, 0.5 * S.data)
    shape = terms[0].shape
    if not (
        all(v.dtype == np.float64 and v.shape == (S.nnz,) for v in values)
        and len(shape) == 2 and S.shape == (shape[0], shape[0])
        and all(t.dtype == np.float64 and t.shape == shape and t.flags.c_contiguous
                and t.flags.writeable for t in terms)
    ):
        raise ValueError("a Chebyshev recurrence needs float64 S values, S N x N for "
                         "an N-row signal, C-contiguous writeable float64 work arrays")
    return S, values, tuple(t.reshape(-1, copy=False) for t in terms)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset``
    narrows, where the platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _column_groups(nnz: int, d: int) -> list[tuple[int, int]]:
    """The contiguous column ranges ``[lo, hi)`` a recurrence over ``d``
    columns of a product with ``nnz`` entries runs as: ``k = min(usable
    CPUs, d // GROUP_MIN_COLUMNS)`` groups above ``SPLIT_WORK``, each at
    least GROUP_MIN_COLUMNS wide and starting at a multiple of it (see the
    module docstring), and ``[(0, d)]`` up to ``SPLIT_WORK`` or when k < 2."""
    k = min(_usable_cpus(), d // GROUP_MIN_COLUMNS) if nnz * d > SPLIT_WORK else 1
    if k < 2:
        return [(0, d)]
    bounds = [GROUP_MIN_COLUMNS * (d * i // (GROUP_MIN_COLUMNS * k)) for i in range(k)]
    return list(zip(bounds, bounds[1:] + [d]))


def _run_groups(groups, work) -> list:
    """``work(lo, hi)`` for every column group, in group order: the first
    on this thread, the others on threads made for this call. Returns once
    every group is done; the first group's exception, else the first
    worker's, reaches the caller."""
    with ThreadPoolExecutor(len(groups) - 1, thread_name_prefix="ufg-columns") as pool:
        futures = [pool.submit(work, lo, hi) for lo, hi in groups[1:]]
        first = work(*groups[0])
    return [first] + [f.result() for f in futures]


def _by_column_groups(op: DecompositionOperator, recurrence, signal: np.ndarray) -> np.ndarray:
    """``recurrence(S, steps, signal)`` on the operator's ``S`` and block
    fits, ``steps[k]`` holding step k's coefficients: run as it is for one
    column group (``_column_groups``), else once per group of the last
    axis of ``signal`` and joined along that axis into one C-contiguous
    array, bitwise the same with BLAS on one thread (see the module
    docstring)."""
    S = op.recurrence
    steps = np.ascontiguousarray(op.system.chebyshev_coeffs.T)
    groups = _column_groups(S.nnz, signal.shape[-1])
    if len(groups) == 1:
        return recurrence(S, steps, signal)
    parts = _run_groups(groups, lambda lo, hi: recurrence(S, steps, signal[..., lo:hi]))
    return np.concatenate(parts, axis=-1)


def _decompose_columns(S: SparseMatrix, steps: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The forward recurrence of ``decompose`` on the N x w signal ``X``:
    its C-contiguous ``(B, N, w)`` coefficients."""
    n, d = X.shape
    # pair[k & 1] holds (-1)^(k // 2) T_k: with signs +, +, -, -, ... each
    # step adds S T_{k-1} (k odd) or -S T_{k-1} (k even) into the slot of
    # T_{k-2}, which then holds the signed T_k = S T_{k-1} - T_{k-2}.
    # T_1 = S T_0 / 2 goes into zeros. The copy keeps X unwritten.
    pair = np.zeros((2, n, d))
    pair[0] = X
    S, values, flat = _kernel_operands(S, pair)
    # C-contiguous output whatever the layout of X; flattened, block b is
    # column b of the Fortran-ordered (N d) x B view ``columns``, and slot i
    # of the pair column i of the (N d) x 2 view ``both``. After an odd
    # step both slots carry the sign of k, so one product adds
    # c_{b,k-1} T_{k-1} + c_{b,k} T_k to every block, and an odd term
    # count ends with a product of slot 0 alone. The first writes the
    # output (beta = 0), which no step reads.
    num_blocks = steps.shape[1]
    data = np.empty((num_blocks, n, d))
    columns = data.reshape(num_blocks, -1, copy=False).T
    both = pair.reshape(2, -1, copy=False).T
    top = len(steps) - 1
    for k in range(top + 1):
        odd = k & 1
        if k:
            csr_matvecs(n, n, d, S.indptr, S.indices, values[2 if k == 1 else odd],
                        flat[1 - odd], flat[odd])
        if (odd or k == top) and data.size:
            dgemm(-1.0 if k & 2 else 1.0, both[:, :odd + 1], steps[k - odd:k + 1].T,
                  beta=float(k > 1), c=columns, trans_b=1, overwrite_c=True)
    return data


def _reconstruct_columns(S: SparseMatrix, steps: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The adjoint recurrence of ``reconstruct`` on the ``(B, N, w)``
    coefficient blocks ``blocks``: the N x w result."""
    blocks = np.ascontiguousarray(blocks, dtype=np.float64)
    n, d = blocks.shape[1:]
    # Block b is column b of the Fortran-ordered (N d) x B view, as BLAS
    # reads it without a copy; steps[k] holds step k's coefficients.
    columns = blocks.reshape(len(blocks), -1, copy=False).T
    # b_k = w_k + S b_{k+1} - b_{k+2} from b_{t+1} = b_{t+2} = 0; the sum is
    # b_0 = w_0 + S b_1 / 2 - b_2. pair[k & 1] holds (-1)^(k // 2) b_k, so
    # step k adds S b_{k+1} (k even) or -S b_{k+1} (k odd), and b_0 comes
    # out with sign +. Steps k (odd) and k - 1 share a sign and one product
    # over all blocks, which adds w_k and w_{k-1} to the slots of the
    # (N d) x 2 view ``both`` between their sparse products; a top even
    # term starts alone.
    pair = np.zeros((2, n, d))
    S, values, flat = _kernel_operands(S, pair)
    both = pair.reshape(2, -1, copy=False).T
    top = len(steps) - 1
    if not top & 1 and columns.size:
        dgemv(-1.0 if top & 2 else 1.0, columns, steps[top], beta=1.0,
              y=flat[0], overwrite_y=True)
    for k in range(top if top & 1 else top - 1, 0, -2):
        if k < top:
            csr_matvecs(n, n, d, S.indptr, S.indices, values[0], flat[0], flat[1])
        if columns.size:
            dgemm(-1.0 if k & 2 else 1.0, columns, steps[k - 1:k + 1].T, beta=1.0,
                  c=both, overwrite_c=True)
        csr_matvecs(n, n, d, S.indptr, S.indices, values[2 if k == 1 else 1],
                    flat[1], flat[0])
    return pair[0].copy()


def block_energies(c: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every block of the ``(B, N, d)``
    coefficients ``c``: a ``(B,)`` array in ``block_index`` order."""
    return np.sum(c**2, axis=(1, 2))
