"""Checks on the library source itself."""

import ast
from pathlib import Path

import padiclie

SOURCES = sorted(Path(padiclie.__file__).resolve().parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # invariant checks must survive python -O, which strips assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 5
    assert found == []
