"""Every public top-level name of ``src/ufg`` is referenced beyond its own
definition, so code that only tests call does not stay in the package, and
every name the benchmark workloads call exists and runs."""

import ast
import importlib
import re
from pathlib import Path

from ufg import graphs
from ufg.datasets import random_er_graph

ROOT = Path(__file__).resolve().parents[1]
# A "module:function" lookup site, as the benchmark's span table and the
# console-script entry point write them.
SITE = re.compile(r"[\"']ufg(?:\.\w+)*:([\w.]+)[\"']")
# Public names kept without a reference in src/ufg, each with its reason.
UNREFERENCED = {
    "transform.make_system": "perfbench/workloads.py builds its framelet systems "
    "through it, and the benchmark's files change only with the benchmark",
}


def _defined(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _reference(node: ast.AST) -> str | None:
    """The name an import, a loaded name or an attribute refers to."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.name if isinstance(node, ast.alias) else None


def test_every_public_name_is_referenced_outside_its_definition():
    public, refs = set(), set()
    for path in sorted((ROOT / "src" / "ufg").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _defined(stmt)
            public.update(f"{path.stem}.{n}" for n in names if not n.startswith("_"))
            refs.update({_reference(node) for node in ast.walk(stmt)} - names)
    for path in [ROOT / "pyproject.toml", *(ROOT / "perfbench").rglob("*.py")]:
        for match in SITE.finditer(path.read_text(encoding="utf-8")):
            refs.update(match[1].split("."))
    orphans = sorted(name for name in public if name.split(".")[1] not in refs)
    # An allow-listed name that gained a reference leaves the list.
    assert orphans == sorted(UNREFERENCED), orphans


def _workload_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every attribute the workloads read of a module
    they import as ``from ufg import graphs``."""
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "ufg"
               for alias in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def _lambda_max_methods(tree: ast.Module) -> set[str]:
    """The method names the workloads pass to ``graphs.lambda_max``."""
    return {arg.value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "graphs.lambda_max"
            for arg in node.args if isinstance(arg, ast.Constant)}


def test_every_library_name_the_benchmark_workloads_use_exists():
    # Tier-1 runs tests/ only, so without this a change that drops one of
    # these names passes here and fails only in the benchmark run.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    used = _workload_names(tree)
    assert {m for m, _ in used} >= {"datasets", "experiments", "graphs", "transform"}
    missing = sorted(f"{m}.{name}" for m, name in used
                     if not hasattr(importlib.import_module(f"ufg.{m}"), name))
    assert missing == []
    # The workloads read these of a Laplacian, and pick a lambda_max method.
    lap = graphs.normalized_laplacian(random_er_graph(30, 4.0, 0))
    assert (lap.num_rows, lap.nnz) == (30, lap.csr.nnz)
    for method in _lambda_max_methods(tree):
        assert 0.0 < graphs.lambda_max(lap, method) <= 2.0


def test_every_benchmark_workload_runs_at_smoke_size(monkeypatch):
    # The workloads call the library with keywords that only a run checks,
    # so each one probes and runs one pass here, in process, at its smoke size.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    sampler = importlib.import_module("reference").Sampler(None)
    for name, workload in workloads.WORKLOADS.items():
        small = workloads.smoke(workload)
        _, gates = small.probe(0)
        assert all(g["ok"] for g in gates), (name, gates)
        run = small.run_pass(0, sampler)
        assert run.attempted >= 1 and run.failures == [], (name, run.failures)
