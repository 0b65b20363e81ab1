"""Every module-level import in the package's modules, the tests and the
demos is used there."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "beliefclt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


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
