"""The suite's own configuration keeps a failing property's report whole.

pyproject.toml makes every warning an error, with one exception. To write a
failing example's patch, hypothesis imports libcst, which uses the
deprecated mypy_extensions.TypedDict. As an error, that warning ended the
run in a pytest INTERNALERROR, and the falsifying example was lost.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_small(" in output
    assert run.returncode == 1, output
