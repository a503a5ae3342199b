"""Invariant suite: all properties pass on both backends, report fields."""

import json
import re
from types import SimpleNamespace

import pytest

import ufg.verify as verify_mod
from conftest import sparse_matrix
from ufg import graphs, transform
from ufg.cli import main
from ufg.transform import MODES, compute_K
from ufg.verify import run_verify

# Properties of an operator, one row per backend, and the checks run once.
PER_BACKEND = ["round_trip", "parseval", "cascade", "shrinkage_laws", "layer_identity",
               "sigma_zero_ab", "gradients", "spectrum_pool", "training_determinism"]
ONCE = ["csr_layout", "laplacian_spectrum", "lambda_max_bounds", "partition_of_unity",
        "refinement", "chebyshev_scalar_fit", "stacked_tightness", "path_equivalence",
        "lowpass_telescope", "soft_threshold_nonexpansive"]


@pytest.fixture(scope="module")
def reports_30():
    return run_verify(n=30, seed=7)


@pytest.mark.parametrize("mode", MODES)
def test_run_verify_all_properties_pass(reports_30, mode):
    # The rows of one backend: every property the suite checks, once each.
    reports = [r for r in reports_30 if r["mode"] in (None, mode)]
    failed = [r["name"] for r in reports if not r["passed"]]
    assert failed == []
    assert len(reports) == 19
    assert len({r["name"] for r in reports}) == len(reports)
    assert all(isinstance(r["detail"], str) for r in reports)
    assert sum(r["value"] is not None for r in reports) >= 9


@pytest.mark.parametrize("n", [30, 1])
def test_run_verify_checks_every_property_on_both_backends(reports_30, n):
    reports = reports_30 if n == 30 else run_verify(n=n, seed=7)
    failed = [(r["name"], r["mode"]) for r in reports if not r["passed"]]
    assert failed == []
    assert len(reports) == 28
    assert len({(r["name"], r["mode"]) for r in reports}) == len(reports)
    assert sorted(r["name"] for r in reports if r["mode"] is None) == sorted(ONCE)
    for mode in MODES:
        names = [r["name"] for r in reports if r["mode"] == mode]
        assert sorted(names) == sorted(PER_BACKEND)
    # A per-backend property prints its exact row, then its Chebyshev row.
    for first, second in zip(reports, reports[1:]):
        if first["name"] == second["name"]:
            assert (first["mode"], second["mode"]) == MODES
    assert all(isinstance(r["detail"], str) for r in reports)
    assert not any("skipped" in r["detail"] for r in reports)
    # A measured value comes with its tolerance, and passing means value <= tol.
    for r in reports:
        assert (r["value"] is None) == (r["tol"] is None)
        if r["value"] is not None:
            assert r["value"] <= r["tol"]
    assert sum(r["value"] is not None for r in reports) >= 13


def test_layer_identity_and_pooling_are_measured_on_the_chebyshev_operator(reports_30):
    rows = {(r["name"], r["mode"]): r for r in reports_30}
    assert rows[("layer_identity", "chebyshev")]["tol"] == 1e-6
    assert rows[("layer_identity", "exact")]["tol"] == 1e-10
    assert rows[("spectrum_pool", "chebyshev")]["tol"] == 1e-8
    for mode in MODES:
        assert rows[("round_trip", mode)]["tol"] == rows[("layer_identity", mode)]["tol"]


def test_gradient_rows_show_their_margin(reports_30):
    # The value is gradient_check's ratio: its 1e-5 floor is on the gradient
    # scale, and no absolute error passes outright, so it is positive even
    # where every absolute error is below 1e-10.
    for mode in MODES:
        row = next(r for r in reports_30 if (r["name"], r["mode"]) == ("gradients", mode))
        assert row["tol"] == 1e-5 and 0.0 < row["value"] <= row["tol"]
        ratios = re.fullmatch(r"max relative gradient error relu (\S+)/(\d+) coords, "
                              r"shrinkage (\S+)/(\d+) coords", row["detail"])
        assert ratios and int(ratios[2]) > 0 and int(ratios[4]) > 0
        assert row["value"] == pytest.approx(max(float(ratios[1]), float(ratios[3])),
                                             rel=1e-2)


@pytest.mark.parametrize("mode", MODES)
def test_default_fixture_has_K_zero_under_both_bounds(mode):
    # The fixture's K does not depend on which bound of the top eigenvalue
    # sets it, so the suite's values do not either.
    fx = verify_mod._fixtures(100, 7)
    assert set(fx["ops"]) == set(MODES)
    assert fx["ops"][mode].system.mode == mode
    assert fx["ops"][mode].system.K == 0
    assert compute_K(float(fx["graph"].spectrum.values[-1]), 2.0) == 0


def test_training_determinism_rebuilds_what_it_compares(monkeypatch):
    fx = verify_mod._fixtures(12, 7)
    calls = []
    real = graphs.eigendecompose

    def counting(lap):
        calls.append(lap.num_rows)
        return real(lap)

    monkeypatch.setattr(graphs, "eigendecompose", counting)
    passed, detail = verify_mod._check_training_determinism(fx, fx["ops"]["exact"])
    # Each run eigendecomposes its own equal 40-node graph.
    assert passed and calls == [40, 40]
    assert detail == "re-run metrics identical: True"


def test_run_verify_builds_each_operator_once(monkeypatch):
    builds = []
    real = transform.build_operators

    def counting(system, lap, spectrum=None):
        builds.append((lap.num_rows, system.mode, system.levels, system.degree))
        return real(system, lap, spectrum)

    monkeypatch.setattr(transform, "build_operators", counting)
    assert all(r["passed"] for r in run_verify())
    # The cascade takes the fixture's levels-2 operator instead of
    # rebuilding it; the gradient graph has 12 nodes and each training
    # run its own 40-node graph.
    assert builds == [
        (100, "exact", 2, 16), (100, "chebyshev", 2, 16),
        (100, "exact", 1, 16), (100, "chebyshev", 1, 16), (100, "chebyshev", 2, 8),
        (12, "exact", 2, 16), (12, "chebyshev", 2, 16),
        *[(40, "exact", 2, 16)] * 2, *[(40, "chebyshev", 2, 16)] * 2,
    ]


def test_csr_layout_fails_an_asymmetric_laplacian():
    graph = graphs.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    lap = graph.laplacian.csr.toarray()
    lap[0, 1] += 0.5
    fx = {"graph": SimpleNamespace(laplacian=sparse_matrix(lap),
                                   adjacency=graph.adjacency)}
    passed, detail, value, tol = verify_mod._check_csr_layout(fx)
    assert not passed and value == pytest.approx(0.5) and value > tol
    assert detail == "max asymmetry 5.00e-01"


def test_run_verify_takes_no_mode():
    with pytest.raises(TypeError, match="mode"):
        run_verify(mode="exact")


@pytest.mark.parametrize("n", [0, -2])
def test_run_verify_rejects_a_graph_without_nodes(monkeypatch, capsys, n):
    def no_fixtures(*args):
        raise AssertionError("fixtures were built")

    monkeypatch.setattr(verify_mod, "_fixtures", no_fixtures)
    with pytest.raises(ValueError, match="n must be at least 1"):
        run_verify(n=n)
    # A usage mistake is a runtime failure (2), not a failed property (3).
    assert main(["verify", "--n", str(n)]) == 2
    assert "n must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2.5])
def test_run_verify_rejects_a_seed_before_building_fixtures(monkeypatch, seed):
    def no_fixtures(*args):
        raise AssertionError("fixtures were built")

    monkeypatch.setattr(verify_mod, "_fixtures", no_fixtures)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        run_verify(seed=seed)


def test_crashed_check_reports_as_failure(monkeypatch):
    def boom(fx):
        raise RuntimeError("synthetic crash")

    boom.__name__ = "_check_csr_layout"  # report names come from __name__
    monkeypatch.setattr(verify_mod, "_check_csr_layout", boom)
    reports = run_verify(n=20, seed=7)
    crashed = [r for r in reports if r["name"] == "csr_layout"]
    assert len(crashed) == 1 and crashed[0]["mode"] is None
    assert not crashed[0]["passed"]
    assert "synthetic crash" in crashed[0]["detail"]
    others = [r for r in reports if r["name"] != "csr_layout"]
    assert all(r["passed"] for r in others)


def test_crashed_per_backend_check_fails_both_rows(monkeypatch):
    def boom(fx, op):
        raise RuntimeError(f"synthetic crash on {op.system.mode}")

    boom.__name__ = "_check_parseval"
    monkeypatch.setattr(verify_mod, "_check_parseval", boom)
    reports = run_verify(n=20, seed=7)
    crashed = [r for r in reports if r["name"] == "parseval"]
    assert [(r["mode"], r["passed"]) for r in crashed] == [(m, False) for m in MODES]
    for r in crashed:
        assert f"synthetic crash on {r['mode']}" in r["detail"]
    assert all(r["passed"] for r in reports if r["name"] != "parseval")


def test_a_check_failing_on_one_backend_fails_one_row(monkeypatch, capsys):
    round_trip = verify_mod._check_round_trip

    def chebyshev_only_failure(fx, op):
        passed, detail, value, tol = round_trip(fx, op)
        if op.system.mode == "chebyshev":
            return False, detail, value, tol
        return passed, detail, value, tol

    chebyshev_only_failure.__name__ = "_check_round_trip"
    monkeypatch.setattr(verify_mod, "_check_round_trip", chebyshev_only_failure)
    failed = [(r["name"], r["mode"]) for r in run_verify(n=20, seed=7) if not r["passed"]]
    assert failed == [("round_trip", "chebyshev")]
    assert main(["verify", "--n", "20"]) == 3
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 28
    assert [(r["name"], r["mode"]) for r in rows if not r["passed"]] == failed
