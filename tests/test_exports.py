"""Every name a module exports through __all__, or a demo imports, must exist,
every demo runs to the end, and the library needs numpy alone."""

import ast
import importlib
import json
import pkgutil
import runpy
import subprocess
import sys
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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out  # each demo prints what it checked


def test_the_demos_are_found():
    assert DEMOS  # an empty parametrisation would skip, not fail


_WITHOUT_SCIPY = """\
import json, sys
sys.modules["scipy"] = None  # importing scipy or a submodule now raises ImportError
sys.path.insert(0, sys.argv[1])
import hkgeom, hkgeom.cli
from hkgeom.suites import RunConfig, run_suite
print(json.dumps(run_suite(RunConfig()).summary))
"""


def test_the_library_runs_without_scipy():
    # scipy is a test oracle only: the package and every check run on numpy
    src = str(Path(hkgeom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, src], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"total": 37, "passed": 37, "failed": 0}
