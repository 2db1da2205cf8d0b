"""Checks on the package source itself."""

import ast
import pathlib

import soficsemi


def test_no_bare_assert_in_package():
    """Checks must survive `python -O`, so the package raises named errors
    (`errors.check` or a typed exception) and never uses `assert`."""
    found = []
    for path in sorted(pathlib.Path(soficsemi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
