"""Checks on the package source itself."""

import ast
import pathlib

import soficsemi

WITNESS_TREE_FIELDS = {"_order", "_parent", "_lastgen", "_cayley"}


def package_trees():
    for path in sorted(pathlib.Path(soficsemi.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_bare_assert_in_package():
    """Checks must survive `python -O`, so the package raises named errors
    (`errors.check` or a typed exception) and never uses `assert`."""
    found = []
    for name, tree in package_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_witness_tree_stays_in_finsemi():
    """Only `finsemi` reads a semigroup's witness tree; every other module
    goes through its actions, `left_row`, `mul` or `same_table`."""
    found = []
    for name, tree in package_trees():
        if name != "finsemi.py":
            found += [f"{name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in WITNESS_TREE_FIELDS]
    assert not found, found
