"""The gain-control walk exists once in the package.

agc_policy is the one gain-control rule. on_sample applies it to one
reading, and settle_cw finds where its one-step walk over CW cells stops:
it searches each moving cell's run of settings, asking agc_policy at each
probe, and finishes with the one-step walk itself. Any other caller in
the package would be a second walk (or a second controller), so no other
function may name it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swsense"
CALLERS = {("controller", "on_sample"), ("controller", "settle_cw")}


def functions_naming(source: str, name: str) -> set[str]:
    """The innermost function around each use of name (module level is "<module>"); imports and defs do not count."""
    tree = ast.parse(source)
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.add(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_scan_finds_every_use():
    source = (
        "from x import agc_policy\n"
        "import swsense.controller as c\n"
        "def agc_policy_twin():\n    return 1\n"
        "def walk():\n    def step():\n        return c.agc_policy(1, 2)\n    return step\n"
        "def hold():\n    f = agc_policy\n    return f\n"
        "table = [agc_policy]\n"
    )
    assert functions_naming(source, "agc_policy") == {"step", "hold", "<module>"}


def test_only_on_sample_and_settle_cw_use_agc_policy():
    uses = {
        (path.stem, fn)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in functions_naming(path.read_text(), "agc_policy")
    }
    assert uses == CALLERS
