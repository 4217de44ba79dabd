"""Every name a module exports through __all__, or a demo imports, must exist."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hkgeom

MODULES = ["hkgeom"] + [f"hkgeom.{m.name}" for m in pkgutil.iter_modules(hkgeom.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    # parsed, not run: the demos take seconds, the names milliseconds
    missing = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hkgeom":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []


def test_the_demos_are_found():
    assert DEMOS  # an empty parametrisation would skip, not fail
