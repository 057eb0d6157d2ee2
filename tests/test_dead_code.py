"""A guard against dead code in ``src/scream``, read with the standard library's ``ast``.

A module may not import a name that it never uses (``__init__.py`` re-exports
its imports), and a private ``_name`` function, class or method must be named
somewhere in ``src/`` besides its definition.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "scream").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in SOURCES}


def referenced(tree: ast.AST) -> set[str]:
    """Every identifier read in ``tree``: names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_sources_found():
    assert "oco.py" in TREES and "__init__.py" in TREES


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    assert sorted(imported - referenced(tree)) == []


def test_every_private_definition_is_named_elsewhere():
    used = set().union(*(referenced(tree) for tree in TREES.values()))
    defined = {(module, node.name) for module, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    assert sorted((module, name) for module, name in defined if name not in used) == []
