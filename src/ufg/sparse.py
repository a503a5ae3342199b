"""Compressed sparse row matrices used throughout the transform pipeline.

``SparseMatrix`` is a thin immutable wrapper around ``scipy.sparse.csr_array``
that pins the storage contract: canonical CSR layout (strictly increasing
column indices per row, nondecreasing row offsets), finite values only, and
32-bit ``indptr``/``indices`` whenever the shape and entry count fit them.
Graph adjacencies and Laplacians travel through this type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


def _canonical(mat: sp.csr_array) -> sp.csr_array:
    """Float64 values, summed duplicates, sorted column indices, and int32
    ``indptr``/``indices`` when every index and offset fits, else int64.

    Narrow indices halve the index bytes each sparse product streams (index
    compression; Williams et al. 2007) and leave the values and their order,
    so every product is bit-identical to its int64 counterpart. Index arrays
    may therefore be int32: widen them (``astype(np.int64)``) before any
    arithmetic on them, such as coding a pair as ``row * n + col``.
    """
    mat = mat.astype(np.float64, copy=False)
    mat.sum_duplicates()
    mat.sort_indices()
    fits = max(*mat.shape, mat.nnz) <= np.iinfo(np.int32).max
    index = np.int32 if fits else np.int64
    mat.indptr = mat.indptr.astype(index, copy=False)
    mat.indices = mat.indices.astype(index, copy=False)
    return mat


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable CSR matrix with validated layout.

    Use the ``from_*`` constructors; the raw constructor expects an already
    canonical ``csr_array``.
    """

    csr: sp.csr_array = field(repr=False)

    def __post_init__(self):
        if not sp.issparse(self.csr) or self.csr.format != "csr":
            raise TypeError("SparseMatrix expects a scipy CSR array")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_scipy(mat) -> "SparseMatrix":
        return SparseMatrix(_canonical(sp.csr_array(mat)))

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(_canonical(sp.eye_array(n, format="csr")))

    # -- layout ------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.csr.shape[0]

    @property
    def num_cols(self) -> int:
        return self.csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def validate(self) -> None:
        """Raise ``ValueError`` if the CSR layout contract is broken."""
        indptr, indices, data = self.csr.indptr, self.csr.indices, self.csr.data
        if np.any(np.diff(indptr) < 0):
            raise ValueError("row offsets must be nondecreasing")
        # Only steps between neighbours in the same row must increase.
        row_of = np.repeat(np.arange(self.num_rows), np.diff(indptr))
        steps = np.diff(indices[indptr[0] : indptr[-1]])
        bad = np.flatnonzero((row_of[1:] == row_of[:-1]) & (steps <= 0))
        if bad.size:
            raise ValueError(
                f"row {row_of[bad[0]]}: column indices not strictly increasing"
            )
        if data.size and not np.all(np.isfinite(data)):
            raise ValueError("stored values must be finite")

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other) -> np.ndarray:
        """Sparse @ dense, returned dense."""
        return np.asarray(self.csr @ np.asarray(other, dtype=np.float64))

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        return SparseMatrix(_canonical(sp.csr_array(self.csr + other.csr)))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def max_abs_asymmetry(self) -> float:
        diff = self.csr - self.csr.T
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0

    def gershgorin_bound(self) -> float:
        """Upper bound on the spectral radius via Gershgorin discs."""
        if self.num_rows == 0:
            return 0.0
        diag = self.csr.diagonal()
        abs_row_sums = np.asarray(abs(self.csr).sum(axis=1)).ravel()
        return float(np.max(diag + (abs_row_sums - np.abs(diag))))

