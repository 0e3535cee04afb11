"""The benchmark's call-site tracer finds every name it rebinds.

perfbench/tracer.py looks up each entry of its SITES table with getattr
when a Tracer is built, so renaming or removing one of those package
names would crash every benchmark run before its first operation.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    assert len(tr.originals) == len(tracer.SITES)
    assert tr.restored()
