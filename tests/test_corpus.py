"""The shared inputs of `tests/corpus.py`.

Each seeded slice keeps its size and its number of trigonometric
vee-systems, so that a change to a generator shows here before it changes
what an oracle compares over.  No other test module defines the shared
builders again, or imports a corpus input from another test module.
"""

import ast
from pathlib import Path

import pytest

from trigvee.veecheck import full_check

from corpus import catalog_draws, cms_slice, random_sets

TESTS = Path(__file__).parent

# name: (the slice, its size, how many of its sets are vee-systems)
SLICES = {
    "catalog_draws": (catalog_draws, 164, 93),
    "wdvv-sets": (lambda: random_sets("wdvv-sets", 150, (3, 7)), 150, 20),
    "cms": (cms_slice, 244, 93),
}


@pytest.mark.parametrize("name", SLICES)
def test_slice_size_and_vee_system_count(name):
    make, size, vee_systems = SLICES[name]
    inputs = make()
    assert len(inputs) == size
    assert sum(full_check(cfg).is_trig_vee for cfg in inputs) == vee_systems


def top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


BUILDERS = {"a_roots", "b_roots", "a2", "b2", "g2", "prop4"}
INPUTS = top_level_names(ast.parse((TESTS / "corpus.py").read_text()))


@pytest.mark.parametrize(
    "path", sorted(set(TESTS.glob("*.py")) - {TESTS / "corpus.py"}), ids=lambda path: path.name
)
def test_shared_inputs_live_only_in_the_corpus(path):
    tree = ast.parse(path.read_text())
    functions = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    redefined = (functions | top_level_names(tree)) & BUILDERS
    assert not redefined
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
            imported = {alias.name for alias in node.names} & INPUTS
            assert not imported, node.module
