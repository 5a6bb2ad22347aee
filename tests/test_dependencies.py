"""The package runs on numpy alone, scipy is a test-only dependency, the
test references in tests/_oracles.py do not import the package, and every
module uses its imports and lists its public definitions in __all__."""

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


def test_modules_use_their_imports_and_list_their_public_definitions():
    # a move between modules can leave an import unused behind it, or a
    # public function outside the __all__ of its new home
    problems = []
    for path in sorted((ROOT / "src" / "suplab").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        problems += [f"{path.stem}: imports {name} unused" for name in sorted(imported - used)]

        defined, public, listed = set(), set(), None
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                if not node.name.startswith("_"):
                    public.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined |= names
                if "__all__" in names:
                    listed = ast.literal_eval(node.value)
        if listed is not None:
            problems += [f"{path.stem}: {name} is public but not in __all__"
                         for name in sorted(public - set(listed))]
            problems += [f"{path.stem}: __all__ lists {name}, not defined here"
                         for name in listed if name not in defined]
    assert problems == []


def test_one_module_turns_input_into_cell_arrays_and_integers():
    # exponent_space._cell_array makes every read-only grid-bound array and
    # exponent_space._index every integer; a validator written elsewhere
    # would be a second rule
    found = []
    for path in sorted((ROOT / "src" / "suplab").glob("*.py")):
        if path.stem == "exponent_space":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "setflags"
                    or (node.attr == "index" and isinstance(node.value, ast.Name)
                        and node.value.id == "operator")):
                found.append(f"{path.stem}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                found += [f"{path.stem}:{node.lineno} from operator import {alias.name}"
                          for alias in node.names if alias.name == "index"]
    assert found == []
