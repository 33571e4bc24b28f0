"""The mutant table of tests/mutants.py stays applicable: each mutant's old
text occurs exactly once in its file, the mutated file compiles, and each
test it names exists.  Running the mutants themselves is
`python tests/mutants.py`."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert mutant.file.startswith("src/")
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutated_file_compiles(mutant):
    # a mutant that breaks the syntax would fail every test it names for
    # the wrong reason; the runner reports it only as an error
    text = (ROOT / mutant.file).read_text().replace(mutant.old, mutant.new)
    compile(text, mutant.file, "exec")


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *scope = test_id.split("::")
        source = (ROOT / path).read_text()
        *classes, function = scope
        for name in classes:
            assert f"class {name}" in source, test_id
        name = function.split("[", 1)[0]  # a parametrized id names its function first
        assert re.search(rf"def {name}\(", source), test_id


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
