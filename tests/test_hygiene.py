"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import multexode

MODULES = sorted(p for p in Path(multexode.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_all_names_resolve_to_public_objects():
    names = multexode.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(multexode, n)] == []
    assert [n for n in names if isinstance(getattr(multexode, n), ModuleType)] == []
