"""Checks on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_cli_import_leaves_argparse_out():
    """The CLI parses argv from its own verb table; importing it (as every
    CLI call does) loads no `argparse`."""
    src = os.path.dirname(os.path.dirname(soficsemi.__file__))
    code = "import sys, soficsemi.cli; print('argparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"
