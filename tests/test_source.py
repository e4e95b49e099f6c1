"""Rules the package source keeps, read from the source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "wordavoid").glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(source):
    # `python -O` strips assert statements; an invariant must raise
    tree = ast.parse(source.read_text(), str(source))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{source.name} asserts on lines {lines}"
