"""The benchmark's workloads, each driving a different path through
``ufg.transform``.

The program is reached only through public functions, looked up as module
attributes at call time so that the traced run's wrappers see the calls.
Every input is made from the benchmark seed. A pass is the workload's unit
of work: generate the inputs and set up, then run every configuration (or
every round trip) once. Passes of one run repeat the same work exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ufg import datasets, experiments, filters, graphs, transform

from reference import Sampler
from stats import median

# Round-trip tolerances of ``ufg verify`` for the two transform modes.
TIGHTNESS_TOL = {"exact": 1e-10, "chebyshev": 1e-6}
PROBE_COLUMNS = 4


@dataclass
class Pass:
    """Timings and outcomes of one pass.

    ``setup_s``, ``run_s`` and ``steps`` are in reference seconds (see
    reference.py); the ``wall_`` fields hold the same times as read. No
    time includes the reference kernel.
    """

    setup_s: float = 0.0
    run_s: float = 0.0
    steps: list[float] = field(default_factory=list)
    wall_setup_s: float = 0.0
    wall_run_s: float = 0.0
    wall_steps: list[float] = field(default_factory=list)
    # (start, end) of every step, on the time.perf_counter clock.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    accuracies: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)

    def add_setup(self, wall: float, scaled: float) -> None:
        self.wall_setup_s += wall
        self.setup_s += scaled

    def add_run(self, wall: float, scaled: float) -> None:
        self.wall_run_s += wall
        self.run_s += scaled

    def add_step(self, start: float, end: float, sampler: Sampler) -> None:
        wall, scaled = sampler.measure(start, end)
        self.intervals.append((start, end))
        self.wall_steps.append(wall)
        self.steps.append(scaled)
        self.add_run(wall, scaled)


def gate(name: str, ok: bool, detail: str) -> dict:
    return {"gate": name, "ok": bool(ok), "detail": detail}


def tightness_residual(apply, adjoint, num_nodes: int, seed: int) -> float:
    """``||W^T W x - x|| / ||x||`` on a seeded Gaussian probe."""
    x = np.random.default_rng(seed).normal(size=(num_nodes, PROBE_COLUMNS))
    return float(np.linalg.norm(adjoint(apply(x)) - x) / np.linalg.norm(x))


class EpochSink(list):
    """``metrics_sink`` that stamps every row with its arrival time.

    Training appends its rows for an epoch when the epoch ends, so the
    first row carrying a (seed, epoch) pair marks that epoch's end.
    """

    def append(self, row):
        super().append((time.perf_counter(), row))

    def epoch_ends(self) -> list[tuple[int, int, float]]:
        seen: dict[tuple[int, int], float] = {}
        for t, row in self:
            seen.setdefault((row["seed"], row["epoch"]), t)
        return sorted(((s, e, t) for (s, e), t in seen.items()), key=lambda x: x[2])


def timed_training(train, inputs, config, into: Pass, label: str, sampler: Sampler) -> None:
    """Run one training call and add its timings to ``into``.

    A step is an epoch after the first of its seed: the interval between
    two consecutive epoch ends. The call's set-up is the time to its first
    epoch end less one median step; the rest of the call is run time.
    """
    sink = EpochSink()
    into.attempted += 1
    start = time.perf_counter()
    try:
        record = train(inputs, config, sink)
    except (ValueError, FloatingPointError, MemoryError) as exc:
        into.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return
    end = time.perf_counter()
    ends = sink.epoch_ends()
    intervals = [
        (t0, t1)
        for (s0, e0, t0), (s1, e1, t1) in zip(ends, ends[1:])
        if s0 == s1 and e1 == e0 + 1
    ]
    losses = [row["loss"] for _, row in sink]
    if not intervals or not np.all(np.isfinite(record.per_seed)) or not np.all(np.isfinite(losses)):
        into.failures.append(f"{label}: non-finite loss or accuracy, or too few epochs")
        return
    first = len(into.steps)
    for t0, t1 in intervals:
        into.add_step(t0, t1, sampler)
    # Set-up: to the first epoch end, less one median step.
    wall, scaled = sampler.measure(start, ends[0][2])
    setup = (wall - median(into.wall_steps[first:]), scaled - median(into.steps[first:]))
    into.add_setup(*setup)
    # Run: the whole call less its set-up and the steps added above.
    wall, scaled = sampler.measure(start, end)
    into.add_run(
        wall - setup[0] - sum(into.wall_steps[first:]),
        scaled - setup[1] - sum(into.steps[first:]),
    )
    into.accuracies[label] = float(record.mean)


def training_pass(workload, train, seed: int, sampler: Sampler) -> Pass:
    """Generate the inputs, then train every configuration on one seed."""
    out = Pass()
    start = time.perf_counter()
    inputs = workload.generate(seed)
    out.add_setup(*sampler.measure(start, time.perf_counter()))
    for label, config in workload.configs:
        timed_training(train, inputs, replace(config, seeds=(seed,)), out, label, sampler)
    return out


@dataclass(frozen=True)
class NodeWorkload:
    """Node classification on a stochastic block model."""

    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    configs: tuple[tuple[str, experiments.ExperimentConfig], ...]
    # Accuracy floor per config label.
    floors: tuple[tuple[str, float], ...] = ()
    feature_dim: int = 16
    noise_std: float = 0.3
    # The reference kernel this workload samples (reference.py).
    kernel: str = "small"

    def generate(self, seed: int):
        return datasets.generate_sbm(
            list(self.block_sizes), self.p_in, self.p_out,
            datasets.GaussianFeatures(self.feature_dim, noise_std=self.noise_std),
            seed=seed,
        )

    def run_pass(self, seed: int, sampler: Sampler) -> Pass:
        return training_pass(self, experiments.train_node_classifier, seed, sampler)

    def probe(self, seed: int) -> tuple[dict, list[dict]]:
        """Sizes, and the tightness gate on the operator training builds."""
        data = self.generate(seed)
        config = self.configs[0][1]
        op = experiments.build_node_operator(data, config)
        residual = tightness_residual(
            lambda x: transform.decompose(op, x),
            lambda c: transform.reconstruct(op, c),
            data.graph.num_nodes, seed,
        )
        tol = TIGHTNESS_TOL[config.mode]
        sizes = {
            "N": data.graph.num_nodes,
            "nnz": graphs.normalized_laplacian(data.graph).nnz,
            "d": data.features.shape[1],
            "blocks": op.num_blocks,
            "test": int(data.test_mask.sum()),
        }
        gates = [gate(
            "tightness", residual <= tol,
            f"{config.mode} operator residual {residual:.2e} (tol {tol:g})",
        )]
        return sizes, gates


@dataclass(frozen=True)
class GraphWorkload:
    """Graph classification on cycles versus stars."""

    num_per_class: int
    size_range: tuple[int, int]
    configs: tuple[tuple[str, experiments.ExperimentConfig], ...]
    floors: tuple[tuple[str, float], ...] = ()
    kernel: str = "small"

    def generate(self, seed: int):
        return datasets.cycles_and_stars(self.num_per_class, self.size_range, seed=seed)

    def run_pass(self, seed: int, sampler: Sampler) -> Pass:
        return training_pass(self, experiments.train_graph_classifier, seed, sampler)

    def probe(self, seed: int) -> tuple[dict, list[dict]]:
        """Sizes, and the tightness gate on every sample's exact operator."""
        config = next(c for _, c in self.configs if c.pool_mode != "mean")
        worst, nodes, nnz, blocks = 0.0, 0, 0, 0
        for i, sample in enumerate(self.generate(seed)):
            lap = graphs.normalized_laplacian(sample.graph)
            spectrum = graphs.eigendecompose(lap)
            system = transform.make_system(
                filters.haar_filter_bank(), float(spectrum.values[-1]),
                dilation=config.dilation, levels=config.levels, mode="exact",
            )
            op = transform.build_operators(system, lap, spectrum)
            worst = max(worst, tightness_residual(
                lambda x: transform.decompose(op, x),
                lambda c: transform.reconstruct(op, c),
                lap.num_rows, seed + i,
            ))
            nodes += lap.num_rows
            nnz += lap.nnz
            blocks = op.num_blocks
        tol = TIGHTNESS_TOL["exact"]
        m = i + 1
        # Test-set size of the documented 80/10/10 split.
        num_test = m - round(0.8 * m) - max(1, round(0.1 * m))
        sizes = {"graphs": m, "N": nodes, "nnz": nnz,
                 "d": sample.features.shape[1], "blocks": blocks, "test": num_test}
        gates = [gate(
            "tightness", worst <= tol,
            f"worst exact operator residual {worst:.2e} over {i + 1} graphs "
            f"(tol {tol:g})",
        )]
        return sizes, gates


@dataclass(frozen=True)
class RoundTripWorkload:
    """Matrix-free Chebyshev decompose + reconstruct on a large ER graph."""

    num_nodes: int
    avg_degree: float
    num_features: int = 32
    levels: int = 2
    degree: int = 16
    steps_per_pass: int = 3
    floors: tuple = ()
    kernel: str = "spmm"

    def run_pass(self, seed: int, sampler: Sampler) -> Pass:
        out = Pass()
        start = time.perf_counter()
        graph = datasets.random_er_graph(self.num_nodes, self.avg_degree, seed)
        lap = graphs.normalized_laplacian(graph)
        lam = graphs.lambda_max(lap, "power_iteration")
        system = transform.make_system(
            filters.haar_filter_bank(), lam,
            levels=self.levels, degree=self.degree, mode="chebyshev",
        )
        X = np.random.default_rng(seed).normal(size=(self.num_nodes, self.num_features))
        out.add_setup(*sampler.measure(start, time.perf_counter()))
        tol = TIGHTNESS_TOL["chebyshev"]
        worst = 0.0
        for i in range(self.steps_per_pass):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                coeffs = transform.chebyshev_decompose(system, lap, X)
                Y = transform.chebyshev_reconstruct(system, lap, coeffs)
            except MemoryError:
                out.failures.append(f"round trip {i}: out of memory")
                continue
            out.add_step(t0, time.perf_counter(), sampler)
            residual = float(np.linalg.norm(Y - X) / np.linalg.norm(X))
            worst = max(worst, residual)
            if not residual <= tol:
                out.failures.append(f"round trip {i}: residual {residual:.2e} (tol {tol:g})")
        # Accuracy of a round trip is one less its relative residual.
        out.accuracies["roundtrip"] = 1.0 - worst
        out.sizes = {"N": lap.num_rows, "nnz": lap.nnz, "d": self.num_features,
                     "blocks": system.num_blocks}
        return out

    def probe(self, seed: int) -> tuple[dict, list[dict]]:
        # Every round trip of a pass is gated on its own seeded input.
        return {}, []


FLOOR_LEVEL = 0.01


def chance_at_floor(accuracy: float, floor: float, num_test: int) -> float:
    """P(accuracy this low or lower | true accuracy = floor): one-sided
    binomial tail over ``num_test`` independent test predictions."""
    correct = round(accuracy * num_test)
    return sum(
        math.comb(num_test, k) * floor**k * (1.0 - floor) ** (num_test - k)
        for k in range(correct + 1)
    )


def floor_gates(workload, accuracies: dict[str, float], num_test: int) -> list[dict]:
    """The acceptance criteria's accuracy floors, for one training seed.

    The criteria hold the floors on a mean over ten seeds. One seed's test
    set resolves accuracy only to one item (1/20 on cycles and stars), so a
    gate fails when the accuracy is below the floor by more than sampling
    explains: a one-sided binomial test at FLOOR_LEVEL.
    """
    gates = []
    for label, floor in workload.floors:
        acc = accuracies.get(label, 0.0)
        p = chance_at_floor(acc, floor, num_test)
        gates.append(gate(
            f"floor.{label}", p >= FLOOR_LEVEL,
            f"{label} accuracy {acc:.3f} on {num_test} test items, floor {floor:g}: "
            f"P(this low | floor) = {p:.3g} (fails below {FLOOR_LEVEL:g})",
        ))
    return gates


Config = experiments.ExperimentConfig

# Fewer epochs than the criteria's 200, so that a pass takes seconds, and
# patience >= epochs so every run does the same work. On cycles and stars
# validation accuracy peaks within the first 20 epochs.
GRAPH_EPOCHS = 20
CHEB_EPOCHS = 45

WORKLOADS = {
    "node-sbm300-exact": NodeWorkload(
        block_sizes=(100, 100, 100), p_in=0.1, p_out=0.01,
        configs=(
            ("relu", Config()),
            ("shrinkage", Config(activation="shrinkage", sigma=1.0)),
        ),
        # Criterion 10's floor.
        floors=(("relu", 0.90),),
    ),
    "graph-cycles-stars": GraphWorkload(
        num_per_class=100, size_range=(10, 30),
        configs=tuple(
            (mode, Config(task="graph", pool_mode=mode, epochs=GRAPH_EPOCHS,
                           patience=GRAPH_EPOCHS))
            for mode in ("sum", "spectrum", "mean")
        ),
        # Criterion 12's floors.
        floors=(("sum", 0.95), ("spectrum", 0.95)),
    ),
    "node-sbm800-cheb": NodeWorkload(
        block_sizes=(200, 200, 200, 200), p_in=0.018, p_out=0.0006,
        configs=(("relu", Config(mode="chebyshev", degree=16, epochs=CHEB_EPOCHS)),),
    ),
    "roundtrip-er20k-cheb": RoundTripWorkload(num_nodes=20000, avg_degree=10.0),
}


def describe(workload) -> dict:
    """A workload's fields; each configuration shows only the fields that
    differ from the ExperimentConfig defaults (seeds are set per run)."""
    base = asdict(Config())
    out = {}
    for f in fields(workload):
        value = getattr(workload, f.name)
        if f.name == "configs":
            value = {
                label: {k: v for k, v in asdict(c).items() if v != base[k] and k != "seeds"}
                for label, c in value
            }
        out[f.name] = value
    return out


def smoke(workload):
    """The same workload shape at a size that runs in about a second."""
    if isinstance(workload, RoundTripWorkload):
        return replace(workload, num_nodes=300, avg_degree=4.0)
    configs = tuple((label, replace(c, epochs=4, patience=4)) for label, c in workload.configs)
    if isinstance(workload, GraphWorkload):
        return replace(workload, num_per_class=5, size_range=(4, 6), configs=configs, floors=())
    return replace(
        workload, block_sizes=tuple(10 for _ in workload.block_sizes),
        p_in=0.5, p_out=0.05, configs=configs, floors=(),
    )
