"""Invariant suite: all properties pass on small instances, report fields."""

import pytest

import ufg.verify as verify_mod
from ufg.cli import main
from ufg.transform import compute_K
from ufg.verify import run_verify


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_run_verify_all_properties_pass(mode):
    reports = run_verify(mode=mode, n=30, seed=7)
    failed = [r["name"] for r in reports if not r["passed"]]
    assert failed == []
    assert len(reports) == 19
    assert len({r["name"] for r in reports}) == len(reports)
    assert all(isinstance(r["detail"], str) for r in reports)
    # A measured value comes with its tolerance, and passing means value <= tol.
    for r in reports:
        assert (r["value"] is None) == (r["tol"] is None)
        if r["value"] is not None:
            assert r["value"] <= r["tol"]
    assert sum(r["value"] is not None for r in reports) >= 9


@pytest.mark.parametrize("mode", ["exact", "chebyshev"])
def test_default_fixture_has_K_zero_under_both_bounds(mode):
    # The fixture's K does not depend on which bound of the top eigenvalue
    # sets it, so the suite's values do not either.
    fx = verify_mod._fixtures(100, 7, mode)
    assert fx["op"].system.K == 0
    assert compute_K(float(fx["spectrum"].values[-1]), 2.0) == 0


def test_run_verify_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        run_verify(mode="fast")


@pytest.mark.parametrize("n", [0, -2])
def test_run_verify_rejects_a_graph_without_nodes(monkeypatch, capsys, n):
    def no_fixtures(*args):
        raise AssertionError("fixtures were built")

    monkeypatch.setattr(verify_mod, "_fixtures", no_fixtures)
    with pytest.raises(ValueError, match="n must be at least 1"):
        run_verify(mode="exact", n=n)
    # A usage mistake is a runtime failure (2), not a failed property (3).
    assert main(["verify", "--n", str(n)]) == 2
    assert "n must be at least 1" in capsys.readouterr().err


def test_crashed_check_reports_as_failure(monkeypatch):
    def boom(fx):
        raise RuntimeError("synthetic crash")

    boom.__name__ = "_check_csr_layout"  # report names come from __name__
    monkeypatch.setattr(verify_mod, "_check_csr_layout", boom)
    reports = run_verify(mode="exact", n=20, seed=7)
    crashed = next(r for r in reports if r["name"] == "csr_layout")
    assert not crashed["passed"]
    assert "synthetic crash" in crashed["detail"]
    others = [r for r in reports if r["name"] != "csr_layout"]
    assert all(r["passed"] for r in others)
