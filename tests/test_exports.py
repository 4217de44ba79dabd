"""Every name a module exports through __all__, or a demo imports, must exist,
every public function is used, every demo runs to the end, and the library
needs numpy alone."""

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
SOURCES = sorted(Path(hkgeom.__file__).resolve().parent.glob("*.py"))


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


#: public functions that nothing in the package or the demos calls, and why
#: they stay
_UNCALLED = {
    "run_check": "the documented entry point for running one check by id",
    "fd_jacobian": "a documented forms operator, and the test oracle for quotient Jacobians",
}


def test_every_public_function_is_used():
    # an identity that no check, CLI path or demo reaches is either a suite
    # row or dead code; reads of a name or an attribute count as uses, a
    # def, an import and an __all__ string do not
    public, used = {}, set()
    for path in SOURCES + DEMOS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in SOURCES:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    public[node.name] = f"{path.stem}.{node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert set(_UNCALLED) <= set(public)
    assert sorted(public[n] for n in set(public) - used - set(_UNCALLED)) == []


_WITHOUT_SCIPY = """\
import json, sys
sys.modules["scipy"] = None  # importing scipy or a submodule now raises ImportError
sys.path.insert(0, sys.argv[1])
import hkgeom, hkgeom.cli
from hkgeom.suites import RunConfig, run_suite
print(json.dumps(run_suite(RunConfig()).summary))
"""


_IMPORT_BUILDS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hkgeom.cli
from hkgeom import dynkin, flatspace
built = [dynkin._diagram.cache_info(), flatspace._shared_model.cache_info()]
dynkin.extended_diagram("A", 1), flatspace._shared_model(1), flatspace._shared_model(2)
again = [dynkin._diagram.cache_info(), flatspace._shared_model.cache_info()]
print(json.dumps([[info.currsize, info.misses] for info in built + again]))
"""


def test_importing_the_cli_builds_only_the_a1_diagram_and_the_h1_h2_models():
    # shared objects are built on first use; at import only the module constants
    # need any (cotangent's H^1 chart and Eguchi-Hanson, from the A_1 quiver on H^2),
    # so asking for those three again is a cache hit, not a build
    src = str(Path(hkgeom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUILDS, src], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[1, 1], [2, 2], [1, 1], [2, 2]]


def test_the_library_runs_without_scipy():
    # scipy is a test oracle only: the package and every check run on numpy
    src = str(Path(hkgeom.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, src], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"total": 37, "passed": 37, "failed": 0}
