"""The benchmark's call-site tracer finds every name it rebinds.

perfbench/tracer.py looks up each entry of its SITES table with getattr
when a Tracer is built, so renaming or removing one of those package
names would crash every benchmark run before its first operation.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_default_config_is_the_clis(monkeypatch):
    # workloads.default_config builds ControllerConfig(**d["controller"]) from
    # the bundled file, so a field the file keeps and the class drops would
    # end every benchmark run with a TypeError before its first operation.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("SWSENSE_CONFIG", raising=False)
    workloads = importlib.import_module("workloads")
    from swsense.cli import _build

    assert workloads.default_config() == _build(None)


def test_tracer_binds_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    assert len(tr.originals) == len(tracer.SITES)
    assert tr.restored()
