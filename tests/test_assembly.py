"""The library's CSR assembly against SciPy's own construction.

Every matrix the library builds (adjacency, normalized Laplacian, GCN
adjacency, the Chebyshev recurrence matrix S and the block-diagonal graph
union) must equal, array for array and bit for bit, the matrix that SciPy's
sparse operations build from the same input: same ``indptr``, ``indices``
and ``data``, and the same index dtypes. The references below are those
SciPy constructions, followed by the canonical-layout rule (summed
duplicates, sorted indices, int32 indices when they fit).

SciPy sums duplicates after sorting each row with ``std::sort``, which keeps
input order only in rows of at most 16 entries; the assembler always sums in
input order. So the edge lists drawn here put at most 16 entries in a row.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from ufg import datasets, graphs, io, perturb
from ufg.datasets import (
    cycle_graph,
    cycles_and_stars,
    generate_sbm,
    random_er_graph,
    sbm_graph_family,
    star_graph,
)
from ufg.experiments import ExperimentConfig, _GraphTask
from ufg.transform import _recurrence_matrix


def _canonical(mat) -> sp.csr_array:
    mat = sp.csr_array(mat).astype(np.float64, copy=False)
    mat.sum_duplicates()
    mat.sort_indices()
    index = np.int32 if max(*mat.shape, mat.nnz) <= np.iinfo(np.int32).max else np.int64
    mat.indptr = mat.indptr.astype(index, copy=False)
    mat.indices = mat.indices.astype(index, copy=False)
    return mat


def ref_adjacency(num_nodes, edges) -> sp.csr_array:
    arr = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    u, v = arr[:, :2].astype(np.int64).T
    w = arr[:, 2]
    keep = np.column_stack([np.ones(u.size, dtype=bool), u != v])
    rows = np.column_stack([u, v])[keep]
    cols = np.column_stack([v, u])[keep]
    vals = np.column_stack([w, w])[keep]
    shape = (num_nodes, num_nodes)
    return _canonical(sp.coo_array((vals, (rows, cols)), shape=shape))


def ref_laplacian(a: sp.csr_array) -> sp.csr_array:
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    scaled = a.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
    lap = sp.eye_array(a.shape[0], format="csr") - scaled.tocsr()
    return _canonical((lap + lap.T) * 0.5)


def ref_gcn_adjacency(a: sp.csr_array) -> sp.csr_array:
    a_tilde = _canonical(a + sp.eye_array(a.shape[0], format="csr"))
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a_tilde.sum(axis=1)).ravel())
    return _canonical(a_tilde.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :]))


def ref_recurrence(lap: sp.csr_array) -> sp.csr_array:
    s = 2.0 * (lap - sp.eye_array(lap.shape[0], format="csr"))
    s.eliminate_zeros()
    return _canonical(s)


def ref_union(adjacencies) -> sp.csr_array:
    return _canonical(sp.block_diag(adjacencies, format="csr"))


def assert_same_csr(got: sp.csr_array, want: sp.csr_array) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        # Bytes, so that -0.0 and 0.0 or two NaNs are told apart too.
        assert g.tobytes() == w.tobytes(), name


def assert_holds_only_its_entries(csr: sp.csr_array) -> None:
    # A matrix the graph keeps must not pin the longer buffers its entries
    # were compacted in, such as S's before its zero diagonal is dropped.
    for a in (csr.indices, csr.data):
        buffer = a
        while buffer.base is not None:
            buffer = buffer.base
        assert buffer.nbytes == a.nbytes


def assert_graph_matrices(graph) -> None:
    """Laplacian, GCN adjacency and S of ``graph`` against SciPy's, each
    from the library's own input to it."""
    a = graph.adjacency.csr
    lap = graphs.normalized_laplacian(graph)
    gcn = graphs.gcn_norm_adjacency(graph)
    s = _recurrence_matrix(lap)
    assert_same_csr(lap.csr, ref_laplacian(a))
    assert_same_csr(gcn.csr, ref_gcn_adjacency(a))
    assert_same_csr(s.csr, ref_recurrence(lap.csr))
    for m in (graph.adjacency, lap, gcn, s):
        assert_holds_only_its_entries(m.csr)


@st.composite
def edge_lists(draw):
    """``(n, edges)``: up to 16 positive-weight edges on n <= 8 nodes, so
    self loops, loop-only and isolated nodes and repeated pairs all occur."""
    n = draw(st.integers(0, 8))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
                       st.floats(1e-3, 1e3, allow_nan=False))
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=16))
    return n, edges


@given(edge_lists())
@example((0, []))
@example((1, []))
@example((1, [(0, 0, 2.0)]))
@example((3, [(1, 1, 1.0)]))  # a node whose only edge is a self loop
@example((4, [(0, 1, 0.1), (1, 0, 0.2), (0, 1, 0.3), (2, 2, 3.0), (2, 2, 0.7)]))
# Equal weights take the sort of the bare keys, with and without repeats.
@example((4, [(0, 1, 0.5), (1, 0, 0.5), (0, 1, 0.5), (2, 2, 0.5), (2, 2, 0.5)]))
@example((5, [(3, 1, 0.1), (0, 4, 0.1), (2, 2, 0.1), (1, 0, 0.1)]))
def test_assembled_matrices_equal_scipy_construction(case):
    n, edges = case
    graph = graphs.build_graph(n, edges)
    assert_same_csr(graph.adjacency.csr, ref_adjacency(n, edges))
    assert_graph_matrices(graph)


def _read_graph_text(tmp_path, seed):
    rng = np.random.default_rng(seed)
    lines = [f"{u} {v} {w:.3f}" for u, v, w in zip(
        rng.integers(0, 12, 20), rng.integers(0, 12, 20), rng.random(20) + 0.5)]
    path = tmp_path / f"g{seed}.txt"
    path.write_text("12 20\n" + "\n".join(lines) + "\n")
    return io.read_graph_text(str(path))


def _edge_ratio(seed, value):
    graph = random_er_graph(60, 4.0, seed)
    spec = perturb.PerturbationSpec("edge_ratio", value, seed=seed)
    return perturb.perturb(graph, np.zeros((60, 1)), spec)[0]


def _weighted(seed):
    # Rows of about 20 entries with distinct weights and a few self loops,
    # so sums over long rows (degrees, the GCN adjacency's row sums) depend
    # on their order; every pair is given once, as SciPy then sorts alike.
    rng = np.random.default_rng(seed)
    n = 30
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < 0.7
    loops = np.arange(0, n, 4)
    ends = np.concatenate([np.column_stack([u[keep], v[keep]]),
                           np.column_stack([loops, loops])])
    return graphs.build_graph(n, np.column_stack([ends, rng.random(len(ends)) + 0.1]))


GENERATORS = {
    "er": lambda tmp, seed: [random_er_graph(n, d, seed)
                             for n, d in ((2, 1.0), (50, 3.0), (300, 6.0), (2000, 10.0))],
    "sbm": lambda tmp, seed: [generate_sbm([100] * 3, 0.1, 0.01, seed=seed).graph,
                              generate_sbm([200] * 4, 0.018, 0.0006, seed=seed).graph],
    "cycle_star": lambda tmp, seed: [f(n) for f in (cycle_graph, star_graph)
                                     for n in (1, 2, 3, 10 + seed)],
    "sbm_family": lambda tmp, seed: [s.graph for s in sbm_graph_family(2, seed=seed)],
    "edge_ratio": lambda tmp, seed: [_edge_ratio(seed, v) for v in (0.5, 1.5)],
    "read_graph_text": lambda tmp, seed: [_read_graph_text(tmp, seed)],
    "weighted": lambda tmp, seed: [_weighted(seed)],
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generated_graphs_equal_scipy_construction(name, tmp_path, monkeypatch):
    # Every build_graph call records its input, so each adjacency is checked
    # against SciPy's construction from the very edge rows it was built from.
    calls = []
    real = graphs.build_graph

    def recording(num_nodes, edges):
        graph = real(num_nodes, edges)
        calls.append((num_nodes, edges, graph))
        return graph

    for module in (graphs, datasets, perturb):
        monkeypatch.setattr(module, "build_graph", recording)
    for seed in range(3):
        built = GENERATORS[name](tmp_path, seed)
        assert {id(g) for g in built} <= {id(g) for _, _, g in calls}
    for num_nodes, edges, graph in calls:
        assert_same_csr(graph.adjacency.csr, ref_adjacency(num_nodes, edges))
        assert_graph_matrices(graph)


@pytest.mark.parametrize("task", ["cycles-stars", "sbm-family"])
def test_graph_union_equals_scipy_block_diag(task):
    samples = {"cycles-stars": cycles_and_stars, "sbm-family": sbm_graph_family}[task](
        4, seed=1)
    task = _GraphTask(samples, ExperimentConfig(task="graph", pool_mode="mean"))
    want = ref_union([graphs.gcn_norm_adjacency(s.graph).csr for s in samples])
    assert_same_csr(task.norm_adj.csr, want)


# Isolated nodes, self loops and an edgeless graph, side by side.
@example([(3, [(0, 0, 2.0), (0, 1, 1.0)]), (0, []), (2, []), (4, [(3, 3, 0.5)])])
@given(st.lists(edge_lists(), max_size=4))
def test_disjoint_union_is_the_block_diagonal_of_its_graphs(parts):
    parts = [graphs.build_graph(n, edges) for n, edges in parts]
    union = graphs.disjoint_union(parts)
    assert union.num_nodes == sum(g.num_nodes for g in parts)
    # Row by row, so the union's matrices are the graphs' own side by side.
    for matrix in (lambda g: g.adjacency, graphs.normalized_laplacian,
                   graphs.gcn_norm_adjacency):
        want = (ref_union([matrix(g).csr for g in parts]) if parts
                else _canonical(sp.csr_array((0, 0))))
        assert_same_csr(matrix(union).csr, want)
