"""The package runs on numpy alone, scipy is a test-only dependency, and the
test references in tests/_oracles.py do not import the package."""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# a None entry in sys.modules makes every later `import scipy` raise ImportError
IMPORT_ALL_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
import suplab
for info in pkgutil.iter_modules(suplab.__path__):
    importlib.import_module(f"suplab.{info.name}")
    print(info.name)
"""


def test_every_module_imports_without_scipy():
    done = subprocess.run([sys.executable, "-c", IMPORT_ALL_WITHOUT_SCIPY, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = sorted(path.stem for path in (ROOT / "src" / "suplab").glob("*.py"))
    assert sorted(done.stdout.split()) == [m for m in modules if m != "__init__"]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_test_references_do_not_import_the_package():
    # a bug in a shared root is caught only by a reference that does not use it
    tree = ast.parse((ROOT / "tests" / "_oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "numpy" in imported, imported
    assert not any(m.partition(".")[0] == "suplab" for m in imported), imported
