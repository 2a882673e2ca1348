"""Every exported name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fistalab

MODULES = sorted(info.name for info in pkgutil.iter_modules(fistalab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fistalab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_exist():
    # a stale name in __init__'s imports fails the import itself; this names it
    tree = ast.parse(Path(fistalab.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = [f"{mod}.{n}" for mod, n in imported if not hasattr(importlib.import_module(f"fistalab.{mod}"), n)]
    assert missing == []
