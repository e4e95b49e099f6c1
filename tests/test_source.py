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


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_gc_import_or_sys_intern(source):
    # a collector switch changes the whole process's state (ROADMAP, Rejected
    # designs); words are shared through a table that lives for one walk, not
    # through the interpreter's process-wide intern table
    tree = ast.parse(source.read_text(), str(source))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name == "gc"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("gc", "sys"):
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if node.module == "gc" or a.name == "intern"]
        elif (isinstance(node, ast.Attribute) and node.attr == "intern"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append((node.lineno, "sys.intern"))
    assert found == [], f"{source.name} uses {found}"
