"""Undirected weighted graphs, their Laplacians and spectra.

``normalized_laplacian``, ``gcn_norm_adjacency``, ``eigendecompose`` and
``lambda_max`` compute on every call; ``validate_csr`` checks the canonical
layout of a CSR array and ``gershgorin_bound`` bounds its spectrum. A
``Graph`` also keeps what depends on it alone: ``laplacian``, ``spectrum``
and ``lanczos_bound`` are computed on first use and live as long as the
graph, so every operator built from one ``Graph`` object shares them. The
exact spectrum holds N^2 doubles, at most 32 MB at
``EXACT_SPECTRUM_MAX_NODES``. ``Graph.cached`` keeps one more value, the
latest one built for some key: ``transform.framelet_operator`` keeps the
graph's framelet operator there, so a second call with the same settings
returns the same operator, and a call with other settings replaces it. A
graph's adjacency and cached arrays are therefore read-only, so a write
into one raises ``ValueError``; the arrays the plain functions return
belong to the caller.

Every sparse matrix of the library is assembled here, with no SciPy
format conversion or sparse sum: ``_assemble`` sorts an adjacency's entries
once, or their bare keys when every weight is equal, ``_with_diagonal``
merges a diagonal into rows already sorted (the Laplacian, the GCN
adjacency and ``transform``'s recurrence matrix),
``disjoint_union`` concatenates canonical arrays, and ``_csr``, the one
home of the int32 index rule, ends every build. Values take SciPy's
operations in SciPy's order, so each matrix is the one SciPy's sparse
arithmetic would build, bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse as sp
import scipy.sparse.linalg
from numpy.typing import ArrayLike

from .sparse import SparseMatrix

# Dense eigendecomposition is only offered up to this size; beyond it the
# Chebyshev path is the intended route.
EXACT_SPECTRUM_MAX_NODES = 2000

POWER_ITER_MAX_STEPS = 500
POWER_ITER_TOL = 1e-12

# ARPACK's relative tolerance for the Lanczos estimate; the 1.01 margin
# covers it. Below LANCZOS_MIN_NODES rows the Krylov space ARPACK builds is
# the whole space anyway, so a dense solve is used (ARPACK also rejects
# N = 1).
LANCZOS_TOL = 1e-2
LANCZOS_MIN_NODES = 20

# Rows per band of the triangle mirror of ``Spectrum.matrix_function``.
MIRROR_TILE = 64


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with a symmetric adjacency matrix.

    Frozen, and the adjacency's CSR ``data``, ``indices`` and ``indptr``
    are made read-only on construction, because the spectral data below
    and the value in the ``cached`` slot are computed once and kept for
    the graph's lifetime. ``dataclasses.replace`` gives an equal graph that
    computes its own and starts with an empty slot.
    """

    num_nodes: int
    adjacency: SparseMatrix = field(repr=False)

    def __post_init__(self):
        csr = self.adjacency.csr
        if csr.shape != (self.num_nodes, self.num_nodes):
            raise ValueError("adjacency shape does not match num_nodes")
        _freeze(csr.data, csr.indices, csr.indptr)

    @cached_property
    def laplacian(self) -> SparseMatrix:
        """``normalized_laplacian(self)``, computed once; its CSR arrays are
        read-only."""
        lap = normalized_laplacian(self)
        _freeze(lap.csr.data, lap.csr.indices, lap.csr.indptr)
        return lap

    @cached_property
    def spectrum(self) -> Spectrum:
        """``eigendecompose(self.laplacian)``, computed once; its arrays are
        read-only."""
        spectrum = eigendecompose(self.laplacian)
        _freeze(spectrum.values, spectrum.vectors)
        return spectrum

    @cached_property
    def lanczos_bound(self) -> float:
        """``lambda_max(self.laplacian, "lanczos")``, computed once."""
        return lambda_max(self.laplacian, "lanczos")

    def cached(self, key: object, build: Callable[[], Any]) -> Any:
        """``build()``, kept in the graph's one slot under ``key``.

        A call with the key of the kept value returns that very object; a
        call with another key drops the kept value, so that the graph never
        holds two, and keeps what ``build`` returns instead. Equal keys must
        mean results that are interchangeable bit for bit, so a key should
        tell apart every input whose type or value ``build`` records.
        """
        # Written as ``cached_property`` writes, past the frozen __setattr__.
        attrs = vars(self)
        if "_slot" in attrs and attrs["_slot"][0] == key:
            return attrs["_slot"][1]
        attrs.pop("_slot", None)  # dropped before the build, not after
        value = build()
        attrs["_slot"] = (key, value)
        return value

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree of every node (row sums of the adjacency)."""
        return np.asarray(self.adjacency.csr.sum(axis=1)).ravel()

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (self loops count once)."""
        a = self.adjacency.csr
        # int(): a full-array np.count_nonzero returns np.int64 on NumPy 2.
        loops = int(np.count_nonzero(a.diagonal()))
        return (a.nnz - loops) // 2 + loops


def validate_csr(csr: sp.csr_array) -> None:
    """Raise ``ValueError`` if ``csr`` breaks the canonical layout: row
    offsets must not decrease, the column indices of a row must strictly
    increase, and the stored values must be finite."""
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    if np.any(np.diff(indptr) < 0):
        raise ValueError("row offsets must be nondecreasing")
    # Only steps between neighbours in the same row must increase.
    row_of = np.repeat(np.arange(csr.shape[0]), np.diff(indptr))
    steps = np.diff(indices[indptr[0] : indptr[-1]])
    bad = np.flatnonzero((row_of[1:] == row_of[:-1]) & (steps <= 0))
    if bad.size:
        raise ValueError(
            f"row {row_of[bad[0]]}: column indices not strictly increasing"
        )
    if data.size and not np.all(np.isfinite(data)):
        raise ValueError("stored values must be finite")


def gershgorin_bound(csr: sp.csr_array) -> float:
    """Upper bound on the spectral radius via Gershgorin discs."""
    if csr.shape[0] == 0:
        return 0.0
    diag = csr.diagonal()
    abs_row_sums = np.asarray(abs(csr).sum(axis=1)).ravel()
    return float(np.max(diag + (abs_row_sums - np.abs(diag))))


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    ``values`` are ascending; ``vectors`` holds orthonormal eigenvectors as
    columns, so ``vectors @ diag(values) @ vectors.T`` recovers the matrix.
    """

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)

    def matrix_function(self, diag_values: np.ndarray) -> np.ndarray:
        """Dense ``U diag(f(lambda)) U^T`` for per-eigenvalue filter values,
        symmetric bit for bit."""
        fvals = np.asarray(diag_values, dtype=np.float64)
        if fvals.shape != self.values.shape:
            raise ValueError("need one filter value per eigenvalue")
        return self._write_function(fvals, np.empty((fvals.size, fvals.size)))

    def _write_function(self, fvals: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``U diag(fvals) U^T`` into the C-contiguous N x N ``out``
        and return it.

        With ``V = U diag(sqrt|f|)`` the product is the sum of ``+-V_k V_k^T``
        over runs of columns k whose value has one sign, so BLAS ``dsyrk``
        builds one triangle, one call per run, at N^3 flops against a
        general product's 2 N^3. ``_mirror_lower`` then assigns the other
        triangle. Every entry of ``out`` is written and none is read first,
        and the build holds ``V``, one N x N temporary.
        """
        n = fvals.size
        if n == 0:
            return out
        V = np.multiply(self.vectors, np.sqrt(np.abs(fvals)), order="F")
        neg = fvals < 0
        cuts = (np.flatnonzero(neg[1:] != neg[:-1]) + 1).tolist()
        # out^T is Fortran-ordered, so dsyrk writes its upper triangle, the
        # lower one of ``out``, in place.
        beta = 0.0
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            scipy.linalg.blas.dsyrk(-1.0 if neg[lo] else 1.0, V[:, lo:hi], beta=beta,
                                    c=out.T, overwrite_c=True)
            beta = 1.0
        del V
        _mirror_lower(out)
        return out


def _mirror_lower(out: np.ndarray) -> None:
    """Assign the strict lower triangle of the square ``out`` to its upper
    one, in bands of ``MIRROR_TILE`` rows, so no temporary exceeds a band."""
    n = out.shape[0]
    upper = np.triu(np.ones((MIRROR_TILE, MIRROR_TILE), dtype=bool), 1)
    for lo in range(0, n, MIRROR_TILE):
        hi = min(lo + MIRROR_TILE, n)
        out[lo:hi, hi:] = out[hi:, lo:hi].T
        tile = out[lo:hi, lo:hi]
        np.copyto(tile, tile.T, where=upper[: hi - lo, : hi - lo])


def _csr(shape: tuple[int, int], indptr, indices, data) -> SparseMatrix:
    """The ``SparseMatrix`` of canonical CSR arrays, with int32 ``indptr`` and
    ``indices`` when every index and offset fits, else int64.

    Every matrix the library builds ends here. Narrow indices halve the index
    bytes each sparse product streams (index compression; Williams et al.
    2007) and leave the values and their order, so every product is
    bit-identical to its int64 counterpart. Index arrays may therefore be
    int32: widen them (``astype(np.int64)``) before any arithmetic on them,
    such as coding a pair as ``row * n + col``.
    """
    index = np.int32 if max(*shape, len(data)) <= np.iinfo(np.int32).max else np.int64
    return SparseMatrix(sp.csr_array(
        (data, indices.astype(index, copy=False), indptr.astype(index, copy=False)),
        shape=shape,
    ))


def _assemble(shape: tuple[int, int], rows, cols, vals) -> SparseMatrix:
    """The matrix with ``vals`` at ``(rows, cols)``, in canonical CSR.

    The entries are sorted by (row, col) once. Entries at one position are
    summed in input order, ``(v_1 + v_2) + v_3``, whatever order the sort
    leaves them in, and no sum is dropped, not even a zero one. When every
    value equals the first, as ``build_graph``'s positive weights then do
    bit for bit, the bare keys are sorted: any order of equal addends sums
    alike.
    """
    key = np.asarray(rows, dtype=np.int64) * shape[1] + cols
    vals = np.asarray(vals, dtype=np.float64)
    same = vals.size > 0 and bool(np.all(vals == vals[0]))
    if same:
        key = np.sort(key)
    else:
        order = np.argsort(key)
        key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if first.all():
        data = np.full(key.size, vals[0]) if same else vals[order]
    else:
        slot = np.cumsum(first) - 1  # each sorted entry's output slot
        if not same:  # taken to input order, the order of ``vals``
            slot[order] = slot.copy()
        # -0.0 + v is v for every v, so each sum starts at its first term.
        data = np.full(np.count_nonzero(first), -0.0)
        np.add.at(data, slot, vals)
        key = key[first]
    indptr = np.searchsorted(key, np.arange(shape[0] + 1) * shape[1])
    return _csr(shape, indptr, key % shape[1], data)


def _with_diagonal(csr: sp.csr_array, values: np.ndarray, diagonal: Callable):
    """CSR arrays ``(indptr, indices, data)`` of the square matrix with
    ``values`` at the stored off-diagonal entries of ``csr`` and
    ``diagonal(d)`` on its diagonal, where ``d`` holds each row's stored
    diagonal value (0 where the row stores none). Exact zeros are dropped,
    as SciPy's sparse sums drop them.

    ``values`` holds one value per stored entry and is written over. The
    entries keep ``csr``'s canonical order: a row's diagonal takes the place
    of its stored one or goes in after its entries left of it, so nothing is
    sorted.
    """
    n = csr.shape[0]
    indptr, col = csr.indptr, csr.indices
    row = np.repeat(np.arange(n, dtype=indptr.dtype), np.diff(indptr))
    on = np.flatnonzero(col == row)
    rows_on = row[on]
    insert = on.size < n  # some row stores no diagonal
    if insert:
        missing = np.ones(n, dtype=bool)
        missing[rows_on] = False
        new = np.flatnonzero(missing)
        at = indptr[new] + np.bincount(row[col < row], minlength=n)[new]
    del row  # before the copies below, to keep the peak low
    stored = np.zeros(n)
    stored[rows_on] = csr.data[on]
    diag = diagonal(stored)
    values[on] = diag[rows_on]
    if insert:
        col, values = np.insert(col, at, new), np.insert(values, at, diag[new])
        indptr = indptr + np.concatenate([[0], np.cumsum(missing)])
    else:
        col, indptr = col.copy(), indptr.copy()  # compacted in place below
    if col.size <= np.iinfo(col.dtype).max:  # else SciPy widens col
        indptr = indptr.astype(col.dtype, copy=False)
    # SciPy's eliminate_zeros compacts the arrays in place in one pass; NumPy
    # masks (np.delete) make S at N = 20000 take 1.5 times as long.
    out = sp.csr_array((values, col, indptr), shape=csr.shape)
    entries = out.nnz
    out.eliminate_zeros()
    indptr, col, values = out.indptr, out.indices, out.data
    if out.nnz < entries:
        # Views into the longer buffers: keep only the kept entries, one
        # array at a time, so the longer col is freed before data is copied.
        del out
        col = col.copy()
        values = values.copy()
    return indptr, col, values


def build_graph(num_nodes: int, edges: ArrayLike) -> Graph:
    """Assemble an undirected graph from weighted ``(u, v, w)`` edge rows.

    Each ``(u, v, w)`` contributes ``w`` to both ``A[u, v]`` and ``A[v, u]``;
    duplicate pairs accumulate by summation in input order: rows ``w_1``,
    ``w_2``, ``w_3`` naming one pair give ``(w_1 + w_2) + w_3`` at both of
    its entries, so the adjacency is exactly symmetric. Self loops in the
    input are kept once on the diagonal.

    Parameters
    ----------
    num_nodes : int
        Number of nodes, at most 3 037 000 499 so that the assembly's
        ``row * N + col`` keys fit int64; edge endpoints must lie in
        ``[0, num_nodes)``.
    edges : array_like, shape (M, 3)
        One ``(u, v, w)`` row per edge, e.g. an ``(M, 3)`` array or a list of
        triples; endpoints are truncated to integers. Weights must be
        positive and finite. The first bad row in input order is reported.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be nonnegative")
    if int(num_nodes) ** 2 - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"num_nodes = {num_nodes} is too large: entry keys "
                         "row * N + col overflow int64")
    arr = np.asarray(edges, dtype=np.float64)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"edges must be (u, v, w) rows, got shape {arr.shape}")
    ends, w = arr[:, :2], arr[:, 2]
    # Truncation maps exactly the endpoints in (-1, num_nodes) into range.
    out_of_range = ~np.all((ends > -1) & (ends < num_nodes), axis=1)
    bad_weight = ~(np.isfinite(w) & (w > 0))
    bad = np.flatnonzero(out_of_range | bad_weight)
    if bad.size:
        k = bad[0]
        # A NaN or infinite endpoint is named as it is, not truncated.
        u, v = (int(x) if np.isfinite(x) else x for x in ends[k].tolist())
        if out_of_range[k]:
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        raise ValueError(f"edge ({u}, {v}) has invalid weight {float(w[k])}")
    # Each edge is followed by its mirror, read off the (M, 2) endpoint
    # array flat and reversed; a loop's mirror is then dropped.
    pairs = ends.astype(np.int64)
    rows, cols, vals = pairs.reshape(-1), pairs[:, ::-1].reshape(-1), np.repeat(w, 2)
    loop = pairs[:, 0] == pairs[:, 1]
    if loop.any():
        keep = np.ones(rows.size, dtype=bool)
        keep[1::2] = ~loop
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    shape = (num_nodes, num_nodes)
    return Graph(num_nodes=num_nodes, adjacency=_assemble(shape, rows, cols, vals))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """The graphs side by side, with the block-diagonal adjacency: each
    graph's CSR arrays shifted past the rows and entries of those before
    it. Normalized Laplacians and GCN adjacencies read one row at a time,
    so the union's are bitwise the block diagonals of the graphs' own."""
    adjs = [g.adjacency.csr for g in graphs]
    starts = np.cumsum([0] + [g.num_nodes for g in graphs], dtype=np.int64)
    firsts = np.cumsum([0] + [a.nnz for a in adjs], dtype=np.int64)
    n = int(starts[-1])
    return Graph(n, _csr(
        (n, n),
        np.concatenate([[0]] + [a.indptr[1:] + f for a, f in zip(adjs, firsts)]),
        np.concatenate([np.zeros(0, np.int64)]
                       + [a.indices + s for a, s in zip(adjs, starts)]),
        np.concatenate([np.zeros(0)] + [a.data for a in adjs]),
    ))


def normalized_laplacian(graph: Graph) -> SparseMatrix:
    """Symmetric normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``.

    Isolated nodes (zero degree) get an identity row: diagonal 1, no
    off-diagonal entries. The result is symmetric with spectrum in [0, 2].
    """
    n = graph.num_nodes
    deg = graph.degrees
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    a = graph.adjacency.csr
    d_row, d_col = np.repeat(inv_sqrt, np.diff(a.indptr)), inv_sqrt[a.indices]
    # L = I - S with S = D^{-1/2} A D^{-1/2}, symmetrized as (L + L^T) / 2 to
    # scrub roundoff from the two-sided scaling; A is symmetric, so the
    # transposed entry of (i, j) is -(w d_j) d_i.
    off = -(a.data * d_row) * d_col + -(a.data * d_col) * d_row

    def doubled_diagonal(loops):
        one_minus = 1.0 - (loops * inv_sqrt) * inv_sqrt
        return one_minus + one_minus

    indptr, indices, data = _with_diagonal(a, off, doubled_diagonal)
    data *= 0.5
    return _csr((n, n), indptr, indices, data)


def gcn_norm_adjacency(graph: Graph) -> SparseMatrix:
    """Self-loop-augmented symmetric normalization ``D~^{-1/2}(A+I)D~^{-1/2}``."""
    n = graph.num_nodes
    a = graph.adjacency.csr
    # A + I as SciPy adds them: a + 0 off the diagonal, a_ii + 1 on it.
    indptr, indices, data = _with_diagonal(a, a.data + 0.0, lambda loops: loops + 1.0)
    # Row sums as SciPy's sum(axis=1) takes them; every row of A + I stores
    # its diagonal, so none is empty.
    inv_sqrt = 1.0 / np.sqrt(np.add.reduceat(data, indptr[:-1]))
    d_row, d_col = np.repeat(inv_sqrt, np.diff(indptr)), inv_sqrt[indices]
    return _csr((n, n), indptr, indices, (data * d_row) * d_col)


def lambda_max(lap: SparseMatrix, method: str = "lanczos") -> float:
    """Upper estimate of the largest eigenvalue of a symmetric PSD matrix.

    Both methods return ``min(1.01 * estimate, gershgorin_bound)``, a cheap
    value that does not undershoot badly and never exceeds the disc bound.
    ``lanczos`` takes the estimate from ARPACK's Lanczos iteration
    (``eigsh``; Lehoucq, Sorensen & Yang 1998) at relative tolerance
    ``LANCZOS_TOL``; it is the bound ``Graph.lanczos_bound`` caches and
    ``transform.framelet_operator`` sets K from in both modes.
    ``power_iteration`` runs a deterministic power method, which usually
    stops at its ``POWER_ITER_MAX_STEPS`` cap; both start from the same
    vector. It is kept only because the benchmark workloads call it; use
    the Lanczos estimate instead. The exact top eigenvalue is the last of
    ``eigendecompose``'s values.
    """
    n = lap.num_rows
    if n == 0:
        return 0.0
    if method not in ("lanczos", "power_iteration"):
        raise ValueError(f"unknown method {method!r}")
    gersh = gershgorin_bound(lap.csr)
    if lap.nnz == 0:
        return 0.0
    # Deterministic start vector with no exact symmetry to get trapped in.
    vec = 1.0 + np.arange(n, dtype=np.float64) / n
    if method == "lanczos":
        if n < LANCZOS_MIN_NODES:
            rho = float(scipy.linalg.eigvalsh(lap.csr.toarray())[-1])
        else:
            rho = float(scipy.sparse.linalg.eigsh(
                lap.csr, k=1, which="LA", tol=LANCZOS_TOL, v0=vec,
                return_eigenvectors=False,
            )[0])
    else:
        vec /= np.linalg.norm(vec)
        rho = 0.0
        # The image that gives the Rayleigh quotient is the next step's
        # product, so each step costs one sparse product.
        img = lap @ vec
        for _ in range(POWER_ITER_MAX_STEPS):
            norm = np.linalg.norm(img)
            if norm == 0.0:
                break
            vec = img / norm
            img = lap @ vec
            rho_new = float(vec @ img)
            if abs(rho_new - rho) <= POWER_ITER_TOL * max(1.0, abs(rho_new)):
                rho = rho_new
                break
            rho = rho_new
    return float(min(1.01 * max(rho, 0.0), gersh))


def eigendecompose(lap: SparseMatrix) -> Spectrum:
    """Full dense eigendecomposition of a symmetric matrix.

    LAPACK's divide-and-conquer solver ``dsyevd`` (Gu & Eisenstat 1995)
    computes it: for full spectra it is the most accurate of LAPACK's
    symmetric tridiagonal solvers and usually the fastest (Demmel et al.
    2008), and its eigenvectors are orthonormal to a few ulps, where the
    default MRRR driver's reach 1e-12 at N = 2000. It writes them into a
    private Fortran-ordered dense copy of the matrix, so the solve peaks
    at about 3 N^2 doubles: that copy and the solver's 2 N^2 workspace.
    Refuses matrices larger than ``EXACT_SPECTRUM_MAX_NODES``. Tiny negative
    eigenvalues from roundoff are clamped to zero.
    """
    n = lap.num_rows
    if n > EXACT_SPECTRUM_MAX_NODES:
        raise ValueError(
            f"eigendecompose limited to {EXACT_SPECTRUM_MAX_NODES} nodes, got {n}"
        )
    if n == 0:
        return Spectrum(values=np.zeros(0), vectors=np.zeros((0, 0)))
    vals, vecs = scipy.linalg.eigh(lap.csr.toarray(order="F"), driver="evd",
                                   overwrite_a=True)
    if vals.size and vals[0] < -1e-8:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals[0]}")
    return Spectrum(values=np.clip(vals, 0.0, None), vectors=vecs)
