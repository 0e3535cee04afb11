"""Every module-level import in the package is used by its module.

A dead import misstates what a module depends on. The only names a
module may import without using are those perfbench/tracer.py rebinds
in that module's namespace (its SITES table), since the tracer needs
them bound there.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swsense"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom x import y, z\nos.sep\nz()\n") == {"math", "y"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_its_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    rebound = {(module, attr) for module, attr, _ in importlib.import_module("tracer").SITES}
    module = f"swsense.{path.stem}"
    unused = {name for name in unused_imports(path.read_text()) if (module, name) not in rebound}
    assert not unused, f"{module} imports {sorted(unused)} without using them"
