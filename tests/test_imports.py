"""Every module-level import in the package's modules, the tests and the
demos is used there, every function, class and method of the package is
named outside the tests, and importing the CLI starts no process machinery."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from _helpers import package_env

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "beliefclt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
# the code that may name a definition of the package: not the tests
USERS = (sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
         + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                  if not p.name.startswith("test_")))


def _module_id(path: Path) -> str:
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("module", MODULES + SCRIPTS, ids=_module_id)
def test_every_import_is_used(module):
    assert _unused_imports(module.read_text()) == []


def test_detects_an_unused_import():
    assert _unused_imports("import os\nimport re.x\nfrom a import b as c\nos.sep\n") == [
        "line 2: re", "line 3: c"]


def _names(source: str) -> set[str]:
    """Every name a source refers to: bare, as an attribute or imported."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _unnamed_definitions(source: str, names: set[str]) -> list[str]:
    """The functions, classes and methods of a source, dunders aside, that
    no name in ``names`` refers to."""
    return [f"line {node.lineno}: {node.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in names]


@pytest.mark.parametrize("module", MODULES, ids=_module_id)
def test_every_definition_is_named_outside_the_tests(module):
    names = set().union(*(_names(p.read_text()) for p in USERS))
    assert _unnamed_definitions(module.read_text(), names) == []


def test_detects_an_unnamed_definition():
    source = ("def f(): pass\ndef g(): pass\nclass C:\n"
              "    def __init__(self): pass\n    def m(self): pass\n    def k(self): pass\n")
    users = "from a import f\nC().m()\n"
    assert _unnamed_definitions(source, _names(users)) == ["line 2: g", "line 6: k"]


def test_cli_import_leaves_multiprocessing_out():
    # the estimator's pool is threads, so nothing the CLI imports can fork
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, beliefclt.cli; print('multiprocessing' in sys.modules)"],
        env=package_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
