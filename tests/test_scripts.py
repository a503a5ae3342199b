"""Reproduction scripts: every line they print is strict JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_graph_classification_script_prints_strict_json():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_graph_classification.py"),
         "--num-per-class", "5", "--epochs", "2", "--num-seeds", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    assert [r["model"] for r in rows] == [
        "majority", "pool_sum", "pool_spectrum", "pool_mean"
    ]
