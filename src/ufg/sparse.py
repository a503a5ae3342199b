"""The canonical compressed sparse row layout of the library's matrices.

``SparseMatrix`` holds a ``scipy.sparse.csr_array`` in canonical CSR layout
(strictly increasing column indices per row, nondecreasing row offsets,
float64 values) with 32-bit ``indptr``/``indices`` whenever the shape and
entry count fit them. Graph adjacencies and Laplacians travel through this
type; callers compute on ``.csr`` with SciPy, and ``@`` gives a dense
sparse-dense product. ``graphs.validate_csr`` checks the layout.
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
    """Immutable CSR matrix in canonical layout.

    Use ``from_scipy``; the raw constructor expects an already canonical
    ``csr_array``.
    """

    csr: sp.csr_array = field(repr=False)

    def __post_init__(self):
        if not sp.issparse(self.csr) or self.csr.format != "csr":
            raise TypeError("SparseMatrix expects a scipy CSR array")

    @staticmethod
    def from_scipy(mat) -> "SparseMatrix":
        return SparseMatrix(_canonical(sp.csr_array(mat)))

    @property
    def num_rows(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def __matmul__(self, other) -> np.ndarray:
        """Sparse @ dense, returned dense."""
        return np.asarray(self.csr @ np.asarray(other, dtype=np.float64))
