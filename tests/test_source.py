"""Source-level checks on the package."""

import ast
from pathlib import Path

import ugwldp

SOURCES = sorted(Path(ugwldp.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "config_model.py" for path in SOURCES)


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; library checks raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
