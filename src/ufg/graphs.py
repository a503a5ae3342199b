"""Undirected weighted graphs, their Laplacians and spectra.

``normalized_laplacian``, ``gcn_norm_adjacency``, ``eigendecompose`` and
``lambda_max`` compute on every call. A ``Graph`` also keeps what depends on
it alone: ``laplacian``, ``gcn_adjacency``, ``spectrum`` and
``lanczos_bound`` are computed on first use and live as long as the graph,
so every operator or classifier built from one ``Graph`` object shares
them. The exact spectrum holds N^2 doubles, at most 32 MB at
``EXACT_SPECTRUM_MAX_NODES``. A graph
and its arrays must therefore never be mutated; the cached arrays are
read-only, so a write into one raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
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


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with a symmetric adjacency matrix.

    Immutable: neither the graph nor its adjacency arrays may be changed
    after construction, because the spectral data below is computed once
    and kept for the graph's lifetime. ``dataclasses.replace`` gives an
    equal graph that computes its own.
    """

    num_nodes: int
    adjacency: SparseMatrix = field(repr=False)

    def __post_init__(self):
        if self.adjacency.shape != (self.num_nodes, self.num_nodes):
            raise ValueError("adjacency shape does not match num_nodes")

    @cached_property
    def laplacian(self) -> SparseMatrix:
        """``normalized_laplacian(self)``, computed once; its CSR arrays are
        read-only."""
        lap = normalized_laplacian(self)
        _freeze(lap.csr.data, lap.csr.indices, lap.csr.indptr)
        return lap

    @cached_property
    def gcn_adjacency(self) -> SparseMatrix:
        """``gcn_norm_adjacency(self)``, computed once; its CSR arrays are
        read-only."""
        adj = gcn_norm_adjacency(self)
        _freeze(adj.csr.data, adj.csr.indices, adj.csr.indptr)
        return adj

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
        """Dense ``U diag(f(lambda)) U^T`` for per-eigenvalue filter values."""
        fvals = np.asarray(diag_values, dtype=np.float64)
        if fvals.shape != self.values.shape:
            raise ValueError("need one filter value per eigenvalue")
        return (self.vectors * fvals) @ self.vectors.T


def build_graph(num_nodes: int, edges: ArrayLike) -> Graph:
    """Assemble an undirected graph from weighted ``(u, v, w)`` edge rows.

    Each ``(u, v, w)`` contributes ``w`` to both ``A[u, v]`` and ``A[v, u]``;
    duplicate pairs accumulate by summation. Self loops in the input are kept
    once on the diagonal.

    Parameters
    ----------
    num_nodes : int
        Number of nodes; edge endpoints must lie in ``[0, num_nodes)``.
    edges : array_like, shape (M, 3)
        One ``(u, v, w)`` row per edge, e.g. an ``(M, 3)`` array or a list of
        triples; endpoints are truncated to integers. Weights must be
        positive and finite. The first bad row in input order is reported.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be nonnegative")
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
    u, v = ends.astype(np.int64).T
    # Each non-loop edge is followed by its mirror; loops appear once.
    keep = np.column_stack([np.ones(u.size, dtype=bool), u != v])
    rows = np.column_stack([u, v])[keep]
    cols = np.column_stack([v, u])[keep]
    vals = np.column_stack([w, w])[keep]
    coo = sp.coo_array((vals, (rows, cols)), shape=(num_nodes, num_nodes))
    return Graph(num_nodes=num_nodes, adjacency=SparseMatrix.from_scipy(coo))


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
    scaled = a.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
    lap = SparseMatrix.identity(n).csr - scaled.tocsr()
    # Symmetrize to scrub roundoff from the two-sided scaling.
    lap = (lap + lap.T) * 0.5
    return SparseMatrix.from_scipy(lap)


def gcn_norm_adjacency(graph: Graph) -> SparseMatrix:
    """Self-loop-augmented symmetric normalization ``D~^{-1/2}(A+I)D~^{-1/2}``."""
    a_tilde = graph.adjacency.add(SparseMatrix.identity(graph.num_nodes))
    deg = np.asarray(a_tilde.csr.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    scaled = a_tilde.csr.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
    return SparseMatrix.from_scipy(scaled)


def lambda_max(lap: SparseMatrix, method: str = "exact") -> float:
    """Largest eigenvalue of a symmetric PSD matrix.

    ``exact`` runs a dense symmetric eigensolve (sizes up to
    ``EXACT_SPECTRUM_MAX_NODES``). The two estimates return
    ``min(1.01 * estimate, gershgorin_bound)``, a cheap value that does not
    undershoot badly and never exceeds the disc bound. ``lanczos`` takes the
    estimate from ARPACK's Lanczos iteration (``eigsh``; Lehoucq, Sorensen &
    Yang 1998) at relative tolerance ``LANCZOS_TOL``. ``power_iteration``
    runs a deterministic power method, which usually stops at its
    ``POWER_ITER_MAX_STEPS`` cap; both start from the same vector.
    """
    n = lap.num_rows
    if n == 0:
        return 0.0
    if method == "exact":
        if n > EXACT_SPECTRUM_MAX_NODES:
            raise ValueError(
                f"exact lambda_max limited to {EXACT_SPECTRUM_MAX_NODES} nodes, got {n}"
            )
        vals = scipy.linalg.eigvalsh(lap.to_dense())
        return float(max(vals[-1], 0.0))
    if method not in ("lanczos", "power_iteration"):
        raise ValueError(f"unknown method {method!r}")
    gersh = lap.gershgorin_bound()
    if lap.nnz == 0:
        return 0.0
    # Deterministic start vector with no exact symmetry to get trapped in.
    vec = 1.0 + np.arange(n, dtype=np.float64) / n
    if method == "lanczos":
        if n < LANCZOS_MIN_NODES:
            rho = float(scipy.linalg.eigvalsh(lap.to_dense())[-1])
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
    vals, vecs = scipy.linalg.eigh(lap.to_dense())
    if vals.size and vals[0] < -1e-8:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals[0]}")
    return Spectrum(values=np.clip(vals, 0.0, None), vectors=vecs)
