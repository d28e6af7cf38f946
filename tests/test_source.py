"""Checks on the package source itself."""

import ast
from pathlib import Path

import mfmckit

SOURCES = sorted(Path(mfmckit.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert; broken invariants raise InconsistencyError
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
