"""Spans around the calls one swsense module makes into the next.

The package itself is not instrumented. Instead the tracer rebinds a name
in the *calling* module's namespace (for example ``swsense.engine.on_sample``)
to a wrapper that records a span and then calls the original object. Calls
made inside a module through its own globals are only seen where the
module's own name is rebound, so every site below names the caller.

Spans are kept in memory as parallel integer arrays (name id, parent
index, start ns, end ns, exception raised); a span's parent is the
innermost span open when it started. A layer's self time is the duration
of its spans minus the part covered by their direct children.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

import numpy as np

# (calling module, attribute rebound in it, layer of the called code)
SITES = [
    ("swsense.estimator", "chain_readout", "readout"),
    # ControllerConfig.for_chain imports chain_voltages at call time.
    ("swsense.readout", "chain_voltages", "readout"),
    ("swsense.engine", "chain_readout_lines", "readout"),
    ("workloads", "chain_readout", "readout"),
    ("swsense.readout", "tap_rms_voltages", "stub"),
    ("swsense.readout", "tap_coupling", "coupling"),
    ("swsense.readout", "coupler_response", "coupling"),
    # ChainConfig.through_loss_db_at imports tap_sparams at call time.
    ("swsense.coupling", "tap_sparams", "coupling"),
    ("swsense.engine", "sampled_forward_amplitude", "coupling"),
    ("swsense.engine", "build_calibration", "estimator"),
    ("workloads", "build_calibration", "estimator"),
    ("swsense.controller", "estimate", "estimator"),
    ("workloads", "estimate", "estimator"),
    ("workloads", "estimate_frequency", "estimator"),
    ("swsense.estimator", "estimate_frequency", "estimator"),
    ("swsense.estimator", "estimate_power", "estimator"),
    ("swsense.engine", "on_sample", "controller"),
    # build_calibration imports agc_policy at call time; on_sample calls it too.
    ("swsense.controller", "agc_policy", "controller"),
    ("workloads", "agc_policy", "controller"),
    ("swsense.engine", "notch_s21_db", "filters"),
    ("swsense.engine", "stopband_gamma", "filters"),
    ("swsense.engine", "tune", "filters"),
    ("swsense.engine", "release", "filters"),
    ("swsense.engine", "watts_to_dbm", "core"),
    ("swsense.estimator", "watts_to_dbm", "core"),
    ("swsense.engine", "expand_modulated", "core"),
    ("swsense.readout", "expand_signal", "core"),
    ("swsense.cli", "run", "engine"),
    ("workloads", "run", "engine"),
    ("swsense.engine", "get_calibration", "engine"),
    ("workloads", "get_calibration", "engine"),
    ("workloads", "cli_main", "cli"),
    ("swsense.cli", "trace_to_csv", "cli"),
    ("swsense.cli", "samples_to_csv", "cli"),
]

LAYERS = ("readout", "stub", "coupling", "estimator", "controller", "filters", "core", "engine", "cli", "bench")


def _label(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}->{attr}"


class Tracer:
    """In-memory span recorder plus the rebinding of every call site."""

    def __init__(self):
        self.labels: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.exc = array("b")  # 0, or an index into exc_names
        self.exc_names: list[str] = [""]
        self._stack: list[int] = []
        self._installed = False
        # The objects every site is bound to before any wrapper goes in.
        self.originals: list[tuple[object, str, object]] = []
        for module, attr, layer in SITES:
            self._id(_label(module, attr), layer)
            mod = importlib.import_module(module)
            self.originals.append((mod, attr, getattr(mod, attr)))

    def _id(self, label: str, layer: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.layer_of.append(layer)
        return self._ids[label]

    def __len__(self) -> int:
        return len(self.name)

    def open(self, label: str, layer: str = "bench") -> int:
        """Start a span by hand (the bench's own set-up and operation spans)."""
        i = len(self.name)
        self.name.append(self._id(label, layer))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.exc.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, label: str, fn):
        nid = self._ids[label]
        name, parent, start, end, exc, stack = (
            self.name, self.parent, self.start, self.end, self.exc, self._stack
        )
        exc_names = self.exc_names

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            exc.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                kind = type(err).__name__
                if kind not in exc_names:
                    exc_names.append(kind)
                exc[i] = exc_names.index(kind)
                raise
            finally:
                end[i] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every site to a wrapper around its original object."""
        if self._installed or not self.restored():
            raise RuntimeError("call sites are already rebound")
        for (module, attr, _), (mod, _, original) in zip(SITES, self.originals):
            setattr(mod, attr, self._wrap(_label(module, attr), original))
        self._installed = True

    def uninstall(self) -> None:
        for mod, attr, original in self.originals:
            setattr(mod, attr, original)
        self._installed = False

    def restored(self) -> bool:
        """True when every site is bound to the package's own object (identity)."""
        return all(
            getattr(mod, attr) is original and original.__module__.startswith("swsense")
            for mod, attr, original in self.originals
        )

    def save(self, path: str) -> None:
        """Write every span to an .npz file: one array per field plus the name tables."""
        cols = {k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
                for k in ("name", "parent", "start", "end", "exc")}
        np.savez(path, labels=np.array(self.labels), layers=np.array(self.layer_of),
                 exc_names=np.array(self.exc_names), **cols)

    # ---- aggregation over a contiguous range of span indices ----

    def summary(self, lo: int, hi: int) -> "SpanSummary":
        return SpanSummary(self, lo, hi)


class SpanSummary:
    """Counts and self times of the spans recorded between two marks."""

    def __init__(self, tr: Tracer, lo: int, hi: int):
        # Slicing an array copies it, so the tracer's arrays stay free to grow.
        names = np.frombuffer(tr.name[lo:hi], dtype=np.int32)
        parents = np.frombuffer(tr.parent[lo:hi], dtype=np.int32).astype(np.int64) - lo
        dur = (np.frombuffer(tr.end[lo:hi], dtype=np.int64)
               - np.frombuffer(tr.start[lo:hi], dtype=np.int64))
        inside = parents >= 0
        child = np.bincount(parents[inside], weights=dur[inside], minlength=len(dur))
        self._self_ns = dur - child
        self._dur = dur
        self._names = names
        self._exc = np.frombuffer(tr.exc[lo:hi], dtype=np.int8)
        self._tr = tr
        layer_ids = np.array([LAYERS.index(layer) for layer in tr.layer_of], dtype=np.int64)
        self._layers = layer_ids[names] if len(names) else names

    def _mask_labels(self, labels) -> np.ndarray:
        ids = [self._tr._ids[x] for x in labels if x in self._tr._ids]
        return np.isin(self._names, ids)

    def calls(self, layer: str) -> int:
        return int((self._layers == LAYERS.index(layer)).sum())

    def self_ms(self, layer: str) -> float:
        return float(self._self_ns[self._layers == LAYERS.index(layer)].sum()) / 1e6

    def label_counts(self) -> dict[str, int]:
        """Calls per site label, over every label the tracer knows."""
        counts = np.bincount(self._names, minlength=len(self._tr.labels))
        return {label: int(c) for label, c in zip(self._tr.labels, counts)}

    def label_calls(self, *labels: str) -> int:
        return int(self._mask_labels(labels).sum())

    def label_raised(self, exception: str, *labels: str) -> int:
        """Calls of the given sites that ended by raising `exception` ("" = any)."""
        mask = self._mask_labels(labels)
        if exception:
            if exception not in self._tr.exc_names:
                return 0
            return int((mask & (self._exc == self._tr.exc_names.index(exception))).sum())
        return int((mask & (self._exc > 0)).sum())

    def label_total_ms(self, *labels: str) -> float:
        return float(self._dur[self._mask_labels(labels)].sum()) / 1e6

    def label_durations_us(self, *labels: str) -> np.ndarray:
        return self._dur[self._mask_labels(labels)] / 1e3
