"""No module imports a name it never reads.

A scan of the syntax tree: every name an import statement binds in a file
under src/, tests/ or demos/ must be read somewhere in that file.  Names
listed in the module's __all__, the imports of an __init__.py (its
re-exports) and `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str):
    """The names that the import statements of source bind and nothing reads,
    in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from a.b import c, d\n__all__ = ['d']\nprint(os.sep)\n")
    assert unused_imports(source) == ["system", "c"]


@pytest.mark.parametrize("path", [p for p in FILES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []
