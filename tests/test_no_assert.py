"""The package states its checks of proved facts as explicit raises.

An ``assert`` statement is stripped under ``python -O``, so a check written
as one would silently stop running there.
"""

import ast
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "lzero").glob("*.py"))


def test_sources_are_found():
    assert any(path.name == "padic.py" for path in _SOURCES)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements in {path.name} at lines {lines}"
