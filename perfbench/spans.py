"""Span recorder for the traced benchmark run.

The traced run wraps the program's public layer functions at every place
they are looked up: the package imports with ``from .x import y``, so a
function is wrapped both in its defining module and in each module that
imported it. A site that no longer exists is skipped and its span reports
zero calls, so a refactor of the program does not break the benchmark.

Spans live in flat arrays while the run is going and are written out once
at the end. Each span has a name, start, end, parent span and step id.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# Span name -> lookup sites, "module:attr" or "module:Class.attr". The layer
# is the span name's prefix.
SITES = {
    "datasets.generate": [
        "ufg.datasets:generate_sbm",
        "ufg.datasets:cycles_and_stars",
        "ufg.datasets:random_er_graph",
    ],
    "graphs.build_graph": ["ufg.graphs:build_graph", "ufg.datasets:build_graph"],
    "graphs.laplacian": [
        "ufg.graphs:normalized_laplacian",
        "ufg.experiments:normalized_laplacian",
    ],
    "graphs.eigendecompose": [
        "ufg.graphs:eigendecompose",
        "ufg.experiments:eigendecompose",
    ],
    "graphs.lambda_max": ["ufg.graphs:lambda_max", "ufg.experiments:lambda_max"],
    "filters.fit": ["ufg.filters:chebyshev_fit", "ufg.transform:chebyshev_fit"],
    "filters.poly_apply": [
        "ufg.filters:apply_polynomial_to_signal",
        "ufg.transform:apply_polynomial_to_signal",
    ],
    "filters.matrix_poly": [
        "ufg.filters:apply_matrix_polynomial",
        "ufg.transform:apply_matrix_polynomial",
    ],
    "transform.build": [
        "ufg.transform:build_operators",
        "ufg.experiments:build_operators",
    ],
    "transform.decompose": [
        "ufg.transform:decompose",
        "ufg.nn:decompose",
        "ufg.experiments:decompose",
    ],
    "transform.reconstruct": [
        "ufg.transform:reconstruct",
        "ufg.nn:reconstruct",
        "ufg.experiments:reconstruct",
    ],
    "transform.cheb_decompose": [
        "ufg.transform:chebyshev_decompose",
        "ufg.experiments:chebyshev_decompose",
    ],
    "transform.cheb_reconstruct": [
        "ufg.transform:chebyshev_reconstruct",
        "ufg.experiments:chebyshev_reconstruct",
    ],
    "shrinkage.shrink": [
        "ufg.shrinkage:shrink_stack",
        "ufg.shrinkage:stack_thresholds",
        "ufg.nn:shrink_stack",
        "ufg.nn:stack_thresholds",
        "ufg.experiments:shrink_stack",
    ],
    "nn.conv_forward": ["ufg.nn:ufg_conv_forward", "ufg.experiments:ufg_conv_forward"],
    "nn.conv_backward": [
        "ufg.nn:ufg_conv_backward",
        "ufg.experiments:ufg_conv_backward",
    ],
    "nn.gcn": [
        "ufg.nn:gcn_conv_forward",
        "ufg.nn:gcn_conv_backward",
        "ufg.experiments:gcn_conv_forward",
        "ufg.experiments:gcn_conv_backward",
    ],
    "nn.pool": [
        "ufg.nn:ufg_pool_forward",
        "ufg.nn:ufg_pool_backward",
        "ufg.experiments:ufg_pool_forward",
        "ufg.experiments:ufg_pool_backward",
    ],
    "nn.mlp": [
        "ufg.nn:mlp_forward",
        "ufg.nn:mlp_backward",
        "ufg.experiments:mlp_forward",
        "ufg.experiments:mlp_backward",
    ],
    "nn.loss": [
        "ufg.nn:softmax_cross_entropy",
        "ufg.nn:accuracy",
        "ufg.experiments:softmax_cross_entropy",
        "ufg.experiments:accuracy",
    ],
    "nn.adam": ["ufg.nn:adam_step", "ufg.experiments:adam_step"],
    "nn.dropout": [
        "ufg.nn:dropout_forward",
        "ufg.nn:dropout_backward",
        "ufg.experiments:dropout_forward",
        "ufg.experiments:dropout_backward",
    ],
}
# SparseMatrix @ dense is an SpMM, SparseMatrix @ SparseMatrix an SpGEMM.
MATMUL_SITE = "ufg.sparse:SparseMatrix.__matmul__"
SPAN_NAMES = [*SITES, "sparse.spmm", "sparse.spgemm"]

# Spans that only run while a workload sets up: their metrics are totals
# over the traced pass, which sets up once. Every other span is averaged
# over the steps.
SETUP_SPANS = {
    "datasets.generate",
    "graphs.build_graph",
    "graphs.laplacian",
    "graphs.eigendecompose",
    "graphs.lambda_max",
    "filters.matrix_poly",
    "transform.build",
    "sparse.spgemm",
}

# Self-time metrics that together cover a step.
STEP_TIME_METRICS = [
    f"{span}_s" for span in SPAN_NAMES if span not in SETUP_SPANS
] + ["experiments.self_s"]

# Per-layer metric name -> unit, in the order of BENCHMARK.json's per_layer
# list. Every per-layer metric is better lower.
PER_LAYER = {
    "datasets.generate_s": "s",
    "graphs.build_graph_s": "s",
    "graphs.laplacian_s": "s",
    "graphs.eigendecompose_s": "s",
    "graphs.lambda_max_s": "s",
    "sparse.spmm_count": "count",
    "sparse.spmm_s": "s",
    "sparse.spmm_flop": "flop",
    "sparse.spmm_bytes": "B",
    "sparse.spgemm_count": "count",
    "sparse.spgemm_s": "s",
    "sparse.laplacian_nnz": "count",
    "filters.fit_count": "count",
    "filters.fit_s": "s",
    "filters.poly_apply_count": "count",
    "filters.poly_apply_s": "s",
    "filters.matrix_poly_s": "s",
    "transform.build_s": "s",
    "transform.decompose_s": "s",
    "transform.reconstruct_s": "s",
    "transform.cheb_decompose_s": "s",
    "transform.cheb_reconstruct_s": "s",
    "transform.operator_bytes": "B",
    "transform.block_density": "ratio",
    "shrinkage.shrink_s": "s",
    "nn.conv_forward_s": "s",
    "nn.conv_backward_s": "s",
    "nn.gcn_s": "s",
    "nn.pool_s": "s",
    "nn.mlp_s": "s",
    "nn.loss_s": "s",
    "nn.adam_s": "s",
    "nn.dropout_s": "s",
    "nn.calls_per_step": "count",
    "experiments.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _resolve(site: str):
    """(owner, attr) of a lookup site, or None if the module or name is gone."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Recorder:
    """Records nested spans of wrapped functions into flat arrays.

    Use as a context manager: entering wraps every site that exists,
    leaving restores the original functions.
    """

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flop = array("d")
        self.bytes = array("d")
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # Results of set-up calls, summed: Laplacian nnz, operator storage.
        self.laplacian_nnz = 0
        self.operator_bytes = 0
        self.block_densities: list[float] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.flop.append(0.0)
        self.bytes.append(0.0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name: str):
        name_id = self._ids[name]
        observe = {
            "graphs.laplacian": self._observe_laplacian,
            "transform.build": self._observe_operator,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def _wrap_matmul(self, fn):
        spmm, spgemm = self._ids["sparse.spmm"], self._ids["sparse.spgemm"]

        @functools.wraps(fn)
        def matmul(a, b):
            sparse_rhs = isinstance(b, type(a))
            idx = self._begin(spgemm if sparse_rhs else spmm)
            try:
                out = fn(a, b)
            finally:
                self._finish(idx)
            if not sparse_rhs:
                # Computed, not measured: one multiply-add per stored entry
                # per column; bytes are the CSR arrays, the dense input and
                # the output, each touched once.
                csr = a.csr
                cols = out.shape[1] if out.ndim == 2 else 1
                self.flop[idx] = 2.0 * csr.nnz * cols
                self.bytes[idx] = float(
                    csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
                    + np.asarray(b).nbytes + out.nbytes
                )
            return out

        return matmul

    def _observe_laplacian(self, lap) -> None:
        self.laplacian_nnz += int(getattr(lap, "nnz", 0))

    def _observe_operator(self, op) -> None:
        for block in getattr(op, "blocks", ()):
            csr = getattr(block, "csr", None)
            if csr is None:
                continue
            self.operator_bytes += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
            self.block_densities.append(csr.nnz / max(1, csr.shape[0] * csr.shape[1]))

    # -- installing --------------------------------------------------------

    def __enter__(self) -> "Recorder":
        for name, sites in SITES.items():
            for site in sites:
                self._install(site, lambda fn, name=name: self._wrap(fn, name))
        self._install(MATMUL_SITE, self._wrap_matmul)
        return self

    def _install(self, site: str, make_wrapper) -> None:
        found = _resolve(site)
        if found is None:
            return
        owner, attr = found
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def tree(self, steps: list[tuple[float, float]]) -> dict[str, np.ndarray]:
        """The span tree as arrays; ``step`` is the index into ``steps`` of
        the step a span started in, or -1 outside every step."""
        start = np.frombuffer(self.start, dtype=np.float64)
        step = np.full(start.size, -1, dtype=np.int32)
        for i, (t0, t1) in enumerate(steps):
            step[(start >= t0) & (start < t1)] = i
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "step": step,
            "flop": np.frombuffer(self.flop, dtype=np.float64).copy(),
            "bytes": np.frombuffer(self.bytes, dtype=np.float64).copy(),
        }

    def layer_metrics(self, tree: dict[str, np.ndarray], steps) -> dict[str, float]:
        """Per-layer metrics from the span tree of one pass.

        Times are self times: a span's duration minus the part its child
        spans cover. Step metrics are means over ``steps``; set-up metrics
        are totals over the pass, which sets up once. ``experiments.self_s``
        is the part of a step that no span covers.
        """
        n = tree["start"].size
        dur = tree["end"] - tree["start"]
        child = tree["parent"] >= 0
        covered = np.bincount(tree["parent"][child], weights=dur[child], minlength=n)
        self_time = dur - covered
        in_step = tree["step"] >= 0
        num_steps = max(1, len(steps))
        name_ids = {name: i for i, name in enumerate(tree["names"])}

        def select(span: str) -> np.ndarray:
            mask = tree["name"] == name_ids[span]
            return mask if span in SETUP_SPANS else mask & in_step

        def per(span: str) -> int:
            return 1 if span in SETUP_SPANS else num_steps

        def self_s(span: str) -> float:
            return float(self_time[select(span)].sum()) / per(span)

        def count(span: str) -> float:
            return float(select(span).sum()) / per(span)

        out = {f"{span}_s": self_s(span) for span in self.names}
        spmm = select("sparse.spmm")
        out.update(
            {
                "sparse.spmm_count": count("sparse.spmm"),
                "sparse.spgemm_count": count("sparse.spgemm"),
                "sparse.spmm_flop": float(tree["flop"][spmm].sum()) / num_steps,
                "sparse.spmm_bytes": float(tree["bytes"][spmm].sum()) / num_steps,
                "sparse.laplacian_nnz": float(self.laplacian_nnz),
                "filters.fit_count": count("filters.fit"),
                "filters.poly_apply_count": count("filters.poly_apply"),
                "transform.operator_bytes": float(self.operator_bytes),
                "transform.block_density": (
                    float(np.mean(self.block_densities)) if self.block_densities else 0.0
                ),
            }
        )
        nn_ids = [i for name, i in name_ids.items() if name.startswith("nn.")]
        out["nn.calls_per_step"] = float(
            (np.isin(tree["name"], nn_ids) & in_step).sum()
        ) / num_steps
        top = in_step & ~child
        step_total = sum(t1 - t0 for t0, t1 in steps)
        out["experiments.self_s"] = (step_total - float(dur[top].sum())) / num_steps
        return out
