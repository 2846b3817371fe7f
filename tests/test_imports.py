"""Every name a geodens module imports is used in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.  So are
``from __future__`` imports, which bind no name.
"""
import ast
from pathlib import Path

import pytest

import geodens

PACKAGE = Path(geodens.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_is_caught():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(path)\n")
    assert set(_imported(tree)) - _used(tree) == {"math", "sep"}
