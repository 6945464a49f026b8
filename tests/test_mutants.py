"""The mutation gate's table stays applicable: each mutant's old text occurs
exactly once in src/, in the file the mutant names, and every test it
lists exists. Running the mutants themselves takes minutes, so tier-1 runs
only this check; `python tests/mutants.py` runs the gate."""

from __future__ import annotations

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT

SOURCES = {str(p.relative_to(ROOT)): p.read_text()
           for p in sorted((ROOT / "src").rglob("*.py"))}


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 10


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_a_mutants_old_text_occurs_once_in_src(mutant):
    assert "\n" not in mutant.old and mutant.old != mutant.new
    found = {path: text.count(mutant.old)
             for path, text in SOURCES.items() if mutant.old in text}
    assert found == {mutant.file: 1}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_a_mutants_tests_exist(mutant):
    for test in mutant.tests:
        path, _, name = test.partition("::")
        text = Path(ROOT / path).read_text()
        assert not name or f"def {name}(" in text, test
