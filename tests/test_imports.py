"""Every import in the package is used where it is made.

A dead import misstates what a module depends on. A module-level import
must be used somewhere in its module, and an import inside a function
somewhere in that function. The only names a module may import without
using are those perfbench/tracer.py rebinds in that module's namespace
(its SITES table), since the tracer needs them bound there.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swsense"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    """Names imported and not used in their scope: the module, or the innermost function holding the import.

    Each import is checked against the names of every scope that holds it,
    the module and each function around it, so the innermost one decides.
    """
    tree = ast.parse(source)
    unused = set()
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in (tree, *functions):
        imported = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add(alias.asname or alias.name.partition(".")[0])
        unused |= imported - {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    return unused


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom x import y, z\nos.sep\nz()\n") == {"math", "y"}


def test_scan_finds_an_unused_import_in_a_function():
    source = (
        "import os\n"
        "def f():\n    from x import a, b\n    import json\n    a()\n"
        "def g():\n    import os.path\n    return 1\n"
        "os.sep\njson.dumps\n"
    )
    # json is named only outside f, and g never names os.
    assert unused_imports(source) == {"b", "json", "os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_its_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    rebound = {(module, attr) for module, attr, _ in importlib.import_module("tracer").SITES}
    module = f"swsense.{path.stem}"
    unused = {name for name in unused_imports(path.read_text()) if (module, name) not in rebound}
    assert not unused, f"{module} imports {sorted(unused)} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_no_private_name_of_another(path):
    # A module reaches another only through its public names.
    private = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"swsense.{path.stem} imports private names {private}"
