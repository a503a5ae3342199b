"""The suite's pytest configuration keeps a failing test's report readable."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 100))
def test_fails(x):
    assert x < 50


def test_passes():
    pass
"""


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # On failure Hypothesis imports libcst to explain the example; a warning
    # raised there as an error must not end the session in INTERNALERROR.
    (tmp_path / "test_property.py").write_text(textwrap.dedent(FAILING_PROPERTY))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
