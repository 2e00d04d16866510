"""Checks on the package source itself."""

import ast
import pathlib

import afweak

SRC = pathlib.Path(afweak.__file__).parent


def test_no_invariant_rests_on_an_assert_statement():
    # python -O strips assert statements, so every check in the package
    # must raise explicitly
    modules = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(modules) >= 10 and not found, found
