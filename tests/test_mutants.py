"""Every row of the mutation battery in ``tests/mutants.py`` is fresh.

The battery takes about a minute, so it is run by hand; these checks are
fast and catch a row that an edit has made stale: its old text must occur
exactly once in its file, and each node id it lists must name a test file
and, after ``::``, a test function defined there.
"""

import ast
import os

import pytest

from mutants import MUTANTS, REPO_ROOT


def _test_functions(path: str) -> set[str]:
    with open(os.path.join(REPO_ROOT, path), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_mutant_names_are_unique():
    assert len({row.name for row in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("row", MUTANTS, ids=[row.name for row in MUTANTS])
def test_mutant_row_is_fresh(row):
    with open(os.path.join(REPO_ROOT, "src", "edgesched", row.path), encoding="utf-8") as fh:
        assert fh.read().count(row.old) == 1
    assert row.tests
    for node in row.tests:
        path, _, name = node.partition("::")
        assert os.path.isfile(os.path.join(REPO_ROOT, path)), node
        if name:
            assert name.split("[")[0] in _test_functions(path), node
