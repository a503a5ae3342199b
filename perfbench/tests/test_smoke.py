"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload shape that run.py offers, untraced and traced, each in
its own process as the benchmark's contract runs it, and checks that the
last line of output names every metric BENCHMARK.json declares, with its
unit, and that every gate passed. Also checks that the benchmark refuses
to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ROOT / SPEC["command"][1]
sys.path.insert(0, str(RUN.parent))
from run import WORKLOAD_NAMES  # noqa: E402  (every workload run.py offers)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_reported(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
