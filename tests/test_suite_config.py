"""The project's configuration: a failing property's report stays whole,
and the package imports exactly the dependencies pyproject.toml declares.

pyproject.toml makes every warning an error, with one exception. To write a
failing example's patch, hypothesis imports libcst, which uses the
deprecated mypy_extensions.TypedDict. As an error, that warning ended the
run in a pytest INTERNALERROR, and the falsifying example was lost.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
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


def _top_level_imports(path: Path) -> set[str]:
    """The first name of every absolute import in the module at path."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_the_package_imports_exactly_its_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    declared = {re.match(r"[\w.-]+", spec)[0].lower().replace("-", "_")
                for spec in tomllib.loads(PYPROJECT.read_text())["project"][
                    "dependencies"]}
    imported = set().union(*map(_top_level_imports, sorted(
        (ROOT / "src" / "event_eval").glob("*.py"))))
    third_party = imported - set(sys.stdlib_module_names) - {"event_eval"}
    assert third_party == declared
