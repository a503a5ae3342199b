"""The canonical compressed sparse row layout of the library's matrices.

``SparseMatrix`` holds a ``scipy.sparse.csr_array`` in canonical CSR layout
(strictly increasing column indices per row, nondecreasing row offsets,
float64 values) with 32-bit ``indptr``/``indices`` whenever the shape and
entry count fit them. Graph adjacencies and Laplacians travel through this
type; callers compute on ``.csr`` with SciPy, and ``@`` gives a dense
sparse-dense product. Every matrix the library makes is assembled in
``graphs``, which alone applies the layout and the int32 index rule;
``graphs.validate_csr`` checks the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class SparseMatrix:
    """CSR matrix in canonical layout, in a frozen dataclass.

    The constructor takes a ``csr_array`` that is already canonical; the
    library's matrices come from the assembler in ``graphs``. The arrays a
    graph or an operator keeps are read-only; a matrix that a plain
    function returns belongs to the caller.
    """

    csr: sp.csr_array = field(repr=False)

    def __post_init__(self):
        if not sp.issparse(self.csr) or self.csr.format != "csr":
            raise TypeError("SparseMatrix expects a scipy CSR array")

    @property
    def num_rows(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def __matmul__(self, other) -> np.ndarray:
        """Sparse @ dense, returned dense."""
        return np.asarray(self.csr @ np.asarray(other, dtype=np.float64))
