"""Checks on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

import soficsemi

WITNESS_TREE_FIELDS = {"_order", "_parent", "_lastgen", "_cols", "_index"}
PACKED_FIELDS = {"_b", "_pad", "_right", "_right_table", "_square", "_wrap"}  # packed points, right tables


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


def test_packed_carriers_stay_in_their_classes():
    """Only `finsemi` and `RowMonomialMatrix`'s own methods read a carrier's
    packed points or its right table; every other line goes through
    products, `mapping`, `rows` or a matrix's `points`."""
    found = []
    for name, tree in package_trees():
        if name == "finsemi.py":
            continue
        own = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "RowMonomialMatrix"
               for node in ast.walk(cls)}
        found += [f"{name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in PACKED_FIELDS
                  and id(node) not in own]
    assert not found, found


def test_one_semigroup_representation():
    """A semigroup is always a closure of packed carriers: no package module
    reads a `table` or `_table` attribute (a carrier's `right_table` and
    `_right_table` are not tables of the semigroup) or defines a second
    witness BFS beside `close_generators`."""
    found = []
    for name, tree in package_trees():
        found += [f"{name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("table", "_table")]
        found += [f"{name}:{node.lineno} {node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_derive_witnesses"]
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


def test_every_definition_is_used_in_the_package():
    """Each function, class and non-dunder method of the package is referenced
    in it outside its own body, exported by `__init__.py`, or a `cmd_*`
    handler; test-only code lives in the tests. A method counts as referenced
    through an attribute of that name, a function or class through any name."""
    trees = dict(package_trees())
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    refs = [(name, node.lineno, node.attr if isinstance(node, ast.Attribute) else node.id,
             isinstance(node, ast.Attribute))
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))]
    defs = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((name, node, node.name, False))
            if isinstance(node, ast.ClassDef):
                defs += [(name, m, f"{node.name}.{m.name}", True) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]

    def used(name, node, method):
        if not method and (node.name in exported or node.name.startswith("cmd_")):
            return True
        return any(ident == node.name and (attr or not method)
                   and not (where == name and node.lineno <= line <= node.end_lineno)
                   for where, line, ident, attr in refs)

    unused = [f"{name} {qual}" for name, node, qual, method in defs
              if not used(name, node, method)]
    assert not unused, unused
