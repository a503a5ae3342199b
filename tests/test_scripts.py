"""Reproduction scripts: every line they print is strict JSON, and they
write no file."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


TINY_NODE = ["--sizes", "10,10", "--epochs", "2", "--num-seeds", "1"]


@pytest.mark.parametrize(
    "script, argv, expected",
    [
        pytest.param(
            "run_denoise.py",
            ["--nodes", "20", "--seeds", "1", "--sigmas", "1"],
            [{"sigma": 0.0}, {"sigma": 1.0}],
            id="denoise",
        ),
        pytest.param(
            "run_robustness.py",
            TINY_NODE + ["--feature-dim", "8", "--ratios", "0,1"],
            [{"noise_ratio": r, "model": m} for r in (0.0, 1.0) for m in ("relu", "shrinkage")],
            id="robustness",
        ),
    ],
)
def test_script_prints_strict_json(script, argv, expected, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    assert [{k: row[k] for k in want} for row, want in zip(rows, expected)] == expected
    assert len(rows) == len(expected)
    assert list(tmp_path.iterdir()) == []
