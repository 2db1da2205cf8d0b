"""Checks on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

import soficsemi

WITNESS_TREE_FIELDS = {"_order", "_parent", "_lastgen", "_cols", "_index"}
# packed points (a carrier's, a closure's keys) and right tables
PACKED_FIELDS = {"_b", "_keys", "_pad", "_right", "_right_table", "_square", "_wrap"}


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


def test_only_the_fold_walks_the_witness_order():
    """Every walk along the witness tree is one `FiniteSemigroup._fold` call:
    `_order` is read in `_fold` and set in `_set_fields`, nowhere else."""
    found = []
    for name, tree in package_trees():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name not in ("_fold", "_set_fields"):
                found += [f"{name}:{node.lineno} {func.name}" for node in ast.walk(func)
                          if isinstance(node, ast.Attribute) and node.attr == "_order"]
    assert not found, found


def test_packed_carriers_stay_in_their_classes():
    """Only `finsemi` and `RowMonomialMatrix`'s own methods read a carrier's
    packed points, a closure's keys or a right table; every other line goes
    through products, `mapping`, `rows`, a matrix's `points` or
    `names.points`."""
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


# standard modules whose import costs a CLI call more than it uses them:
# `argparse` (argv is parsed from the verb table), `dataclasses` and what it
# pulls in (the records are plain classes), `json` (loaded by --format json)
HEAVY_MODULES = {"argparse", "dataclasses", "inspect", "ast", "dis", "tokenize", "json"}


def test_cli_import_leaves_heavy_modules_out():
    """Importing the CLI, as every CLI call does, in a fresh interpreter adds
    none of `HEAVY_MODULES` to `sys.modules`."""
    src = os.path.dirname(os.path.dirname(soficsemi.__file__))
    code = ("import sys; before = set(sys.modules); import soficsemi.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    added = set(out.stdout.split())
    assert "soficsemi.cli" in added
    assert not added & HEAVY_MODULES, sorted(added & HEAVY_MODULES)


def test_no_package_module_imports_dataclasses():
    """The records are plain classes: no package module imports
    `dataclasses`, whose import and per-class code generation every CLI
    call would pay for."""
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno}" for mod in mods
                      if mod.split(".")[0] == "dataclasses"]
    assert not found, found


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


def identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_every_export_serves_a_verb_or_a_theorem():
    """Each name `__init__.py` exports is reached from a `cmd_*` handler or
    from a name in `tests/test_acceptance.py` through package references: a
    definition reaches every function, class or method whose name it
    mentions. An export neither a verb nor a theorem-level test needs is
    deleted, not kept for its own tests."""
    trees = dict(package_trees())
    exported = {alias.asname or alias.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defs = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        defs.setdefault(m.name, []).append(m)
    acceptance = pathlib.Path(__file__).with_name("test_acceptance.py")
    named = set(identifiers(ast.parse(acceptance.read_text())))
    todo = [k for k in defs if k.startswith("cmd_") or k in named]
    reached = set()
    while todo:
        k = todo.pop()
        if k not in reached:
            reached.add(k)
            todo += [i for node in defs[k] for i in identifiers(node) if i in defs]
    unreached = sorted(exported - reached)
    assert not unreached, unreached
