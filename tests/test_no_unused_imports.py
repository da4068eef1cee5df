"""Every name a package module imports is used in it.

No linter runs on the package, so an import left behind when its last use
moves or goes would stay unnoticed.  ``__init__.py`` is left out: it
imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

_SOURCES = sorted(path for path in
                  (Path(__file__).resolve().parent.parent / "src" / "lzero").glob("*.py")
                  if path.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import and never loaded."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            bound.extend((node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, alias.asname or alias.name) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_sources_are_found():
    assert any(path.name == "scans.py" for path in _SOURCES)


def test_an_unused_import_is_caught():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\n\nlcm(2, 3)\n")
    assert _unused_imports(tree) == [(1, "gcd"), (2, "os")]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"unused imports in {path.name}: {unused}"
