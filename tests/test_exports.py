"""Every name a module exports through __all__ must exist."""

import importlib
import pkgutil

import pytest

import hkgeom

MODULES = ["hkgeom"] + [f"hkgeom.{m.name}" for m in pkgutil.iter_modules(hkgeom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
