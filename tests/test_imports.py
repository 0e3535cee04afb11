"""Every import in the package is used where it is made.

A dead import misstates what a module depends on. A module-level import
must be used somewhere in its module, and an import inside a function
somewhere in that function. The only names a module may import without
using are those perfbench/tracer.py rebinds in that module's namespace
(its SITES table), since the tracer needs them bound there. Such an
import says so on its line with TRACER_MARK, and a line with that mark
names an import its module leaves unused.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swsense"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACER_MARK = "# unused here; perfbench/tracer.py rebinds this name"


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


def mark_faults(source: str, unused: set[str]) -> tuple[list[str], list[int]]:
    """(unused imports whose line lacks TRACER_MARK, lines with the mark that import none of unused)."""
    lines = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                lines.setdefault(alias.lineno, set()).add(alias.asname or alias.name.partition(".")[0])
    marked = {n for n, text in enumerate(source.splitlines(), 1) if TRACER_MARK in text}
    unmarked = sorted(unused - {name for n in marked for name in lines.get(n, ())})
    return unmarked, sorted(n for n in marked if not lines.get(n, set()) & unused)


def test_mark_faults_finds_both_faults():
    source = (
        "from x import (\n"
        f"    a,  {TRACER_MARK}\n"
        "    b,\n"
        f"    c,  {TRACER_MARK}\n"
        ")\n"
        f"d = 1  {TRACER_MARK}\n"
        "c()\n"
    )
    assert unused_imports(source) == {"a", "b"}
    # b is unused without the mark; c is used, and line 6 imports nothing.
    assert mark_faults(source, {"a", "b"}) == (["b"], [4, 6])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_its_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    rebound = {(module, attr) for module, attr, _ in importlib.import_module("tracer").SITES}
    module = f"swsense.{path.stem}"
    source = path.read_text()
    kept = unused_imports(source)
    unused = {name for name in kept if (module, name) not in rebound}
    assert not unused, f"{module} imports {sorted(unused)} without using them"
    unmarked, wrong = mark_faults(source, kept)
    assert not unmarked, f"{module} keeps {unmarked} for perfbench/tracer.py; mark each line with {TRACER_MARK!r}"
    assert not wrong, f"{module} lines {wrong} carry {TRACER_MARK!r} but import no name the module leaves unused"


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
