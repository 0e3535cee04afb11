"""JSON files are written and read in one place: swsense.codec's save and load.

A chain, scenario, config, calibration header or metrics.json written or
read anywhere else would be a second file form, with its own checks or
none. json.dumps and json.loads stay free: they serve stdout and the
bundled default config, which is read as a package resource.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swsense"
FILE_FUNCTIONS = {"dump", "load"}


def json_file_uses(source: str) -> list[str]:
    """"json.dump" or "json.load" for each use of either in source, through any alias or from-import."""
    tree = ast.parse(source)
    modules = {"json"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"json.{a.name}" for a in node.names if a.name in FILE_FUNCTIONS]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FILE_FUNCTIONS
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append(f"json.{node.attr}")
    return sorted(found)


def test_scan_finds_every_use():
    source = (
        "import json\nimport json as j\nfrom json import load, loads\n"
        "def f(fh):\n    json.dump({}, fh)\n    return j.load(fh)\n"
        "g = json.dumps\nh = json.loads\nwriter = json.dump\n"
    )
    assert json_file_uses(source) == ["json.dump", "json.dump", "json.load", "json.load"]


def test_only_the_codec_reads_and_writes_json_files():
    uses = {path.stem: json_file_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert uses.pop("codec") == ["json.dump", "json.load"]
    assert {stem: found for stem, found in uses.items() if found} == {}
