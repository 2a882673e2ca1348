"""Every exported name of the package resolves."""

import importlib
import pkgutil

import pytest

import fistalab

MODULES = sorted(info.name for info in pkgutil.iter_modules(fistalab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fistalab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_exist():
    # a stale name in the lazy export table fails only on first use; this names it
    missing = [
        f"{mod}.{n}" for n, mod in fistalab._EXPORTS.items() if not hasattr(importlib.import_module(f"fistalab.{mod}"), n)
    ]
    assert missing == []


def test_each_export_is_the_submodules_object_and_listed():
    wrong = [
        name
        for name, mod in fistalab._EXPORTS.items()
        if getattr(fistalab, name) is not getattr(importlib.import_module(f"fistalab.{mod}"), name)
    ]
    assert wrong == []
    assert set(fistalab._EXPORTS) <= set(dir(fistalab))
    assert sorted(fistalab.__all__) == sorted(fistalab._EXPORTS)


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fistalab.no_such_name  # noqa: B018
