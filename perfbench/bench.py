"""Measurement loop of the swsense benchmark: set-up, timed rounds, metrics.

A run sets the workload up cold several times, then repeats one seeded batch
of operations in rounds until the requested seconds have passed. Every round
must produce the same output digest. Operation times exclude the check of
each output, which runs right after the operation and is never timed.

The host's speed drifts by up to 2x over seconds to minutes. So a fixed speed
probe, code of this file alone, runs between operations about every
PROBE_EVERY_NS, and around every set-up. The end-to-end times are host times
scaled by PROBE_REF_NS over the probe's mean time nearby: the time the work
would take on a host where the probe takes PROBE_REF_NS. The probe calls no
swsense code, so a change to the package moves the scaled times as much as
the raw ones. The unscaled figures are printed in the metadata line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np
import scipy

import tracer as tracing
import workloads

SETUP_REPS = 3  # cold set-ups per untraced run; setup_s is their median
TRACED_SETUPS = 2  # traced cold set-ups, whose call counts must agree
MIN_ROUNDS = 2  # every phase repeats the batch at least twice, to compare digests
PROBE_EVERY_NS = 100_000_000  # host time between speed probes inside a round
PROBE_REF_NS = 5_500_000  # about the probe's median time on the baseline host
SETUP_PROBES = 8  # probes right before and right after each set-up

# name -> (unit, better); BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p95": ("ms", "lower"),
    "adc_samples_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "freq_err_p95_pct": ("%", "lower"),
    "power_err_p95_db": ("dB", "lower"),
}

PER_LAYER = {
    "readout.calls": ("count", "lower"),
    "readout.self_ms": ("ms", "lower"),
    "readout.us_per_call": ("us", "lower"),
    "readout.calls_per_cal_cell": ("count", "lower"),
    "readout.setup_self_ms": ("ms", "lower"),
    "stub.calls": ("count", "lower"),
    "stub.self_ms": ("ms", "lower"),
    "stub.setup_self_ms": ("ms", "lower"),
    "coupling.calls": ("count", "lower"),
    "coupling.self_ms": ("ms", "lower"),
    "coupling.setup_self_ms": ("ms", "lower"),
    "estimator.build_s": ("s", "lower"),
    "estimator.estimate_calls": ("count", "lower"),
    "estimator.estimate_us_p50": ("us", "lower"),
    "estimator.self_ms": ("ms", "lower"),
    "estimator.no_signal_share": ("ratio", "lower"),
    "estimator.error_share": ("ratio", "lower"),
    "controller.on_sample_calls": ("count", "lower"),
    "controller.self_ms": ("ms", "lower"),
    "controller.setup_self_ms": ("ms", "lower"),
    "controller.estimates_per_sample": ("ratio", "lower"),
    "filters.calls": ("count", "lower"),
    "filters.self_ms": ("ms", "lower"),
    "core.calls": ("count", "lower"),
    "core.self_ms": ("ms", "lower"),
    "core.setup_self_ms": ("ms", "lower"),
    "engine.runs": ("count", "lower"),
    "engine.self_ms": ("ms", "lower"),
    "engine.trace_records": ("count", "lower"),
    "engine.cal_builds": ("count", "lower"),
    "engine.trace_overhead_ratio": ("ratio", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.write_ms": ("ms", "lower"),
    "bench.tracing_overhead_ratio": ("ratio", "lower"),
}

ESTIMATE_SITES = ("controller->estimate", "workloads->estimate")
ESTIMATION_ENTRIES = ESTIMATE_SITES + ("workloads->estimate_frequency",)


@dataclass
class Round:
    """What one pass over the batch measured; outputs are kept only as a digest."""

    times_ns: list
    failures: list  # notes of the operations that failed
    adc_samples: int
    trace_records: int
    truths: list  # (truth, estimate) pairs, kept for the first round only
    digest: str
    spans: tuple | None  # (first, end) span index of the round when traced
    probes_ns: list  # speed probe times taken during the round

    @property
    def scale(self) -> float:
        """Factor that turns this round's host times into reference-host times."""
        return PROBE_REF_NS / statistics.fmean(self.probes_ns)

    def scaled_ns(self) -> list:
        k = self.scale
        return [t * k for t in self.times_ns]


def speed_probe() -> int:
    """Host ns of a fixed mix of interpreted Python and small-array numpy work.

    It stands in for the host's speed, as swsense spends its time in the same
    two kinds of work. It calls nothing from swsense.
    """
    t0 = perf_counter_ns()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(450):
        a = np.sqrt(a * a + 1.0)
    return perf_counter_ns() - t0


def _probe_burst() -> list:
    return [speed_probe() for _ in range(SETUP_PROBES)]


def _setups(wl, reps: int, tr=None) -> list:
    """(host ns, Setup, span range, scale) of `reps` cold set-ups.

    The scale comes from the speed probes run right before and right after
    the set-up.
    """
    out = []
    for _ in range(reps):
        before = _probe_burst()
        lo = len(tr) if tr else 0
        t0 = perf_counter_ns()
        s = wl.setup()
        dt = perf_counter_ns() - t0
        scale = PROBE_REF_NS / statistics.fmean(before + _probe_burst())
        out.append((dt, s, (lo, len(tr)) if tr else None, scale))
    return out


def _rounds(wl, st: dict, items: list, seconds: float, tr=None) -> list:
    """Repeat the batch until `seconds` have passed, checking each output."""
    rounds = []
    t_start = perf_counter_ns()
    while len(rounds) < MIN_ROUNDS or perf_counter_ns() - t_start < seconds * 1e9:
        ctx = wl.begin_round(st)
        lo = len(tr) if tr else 0
        r = Round([], [], 0, 0, [], "", None, [])
        h = hashlib.sha256()
        last_probe = 0
        for item in items:
            if perf_counter_ns() - last_probe >= PROBE_EVERY_NS:
                r.probes_ns.append(speed_probe())
                last_probe = perf_counter_ns()
            span = tr.open("bench.op") if tr else None
            t0 = perf_counter_ns()
            try:
                out = wl.op(ctx, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            t1 = perf_counter_ns()
            if tr:
                tr.close(span)
            r.times_ns.append(t1 - t0)
            o = wl.check(st, item, out)
            h.update(json.dumps(o.record, sort_keys=True, default=str).encode())
            if not o.ok:
                r.failures.append(o.note)
            r.adc_samples += o.adc_samples
            r.trace_records += o.trace_records
            if not rounds:
                r.truths += o.truths
        r.digest = h.hexdigest()
        r.spans = (lo, len(tr)) if tr else None
        rounds.append(r)
    return rounds


def _p(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _accuracy(truths) -> tuple[float, float]:
    f_err = [abs(fe - ft) / ft * 100.0 for ft, _, fe, _ in truths]
    p_err = [abs(pe - pt) for _, pt, _, pe in truths if pt is not None]
    if not f_err or not p_err:
        raise RuntimeError("workload produced no estimate with a known truth")
    return _p(f_err, 95), _p(p_err, 95)


def _end_to_end(setups, rounds) -> dict:
    times = [t for r in rounds for t in r.scaled_ns()]
    busy_s = sum(times) / 1e9
    f95, p95 = _accuracy(rounds[0].truths)
    return {
        "setup_s": statistics.median(dt * k for dt, _, _, k in setups) / 1e9,
        "ops_per_s": len(times) / busy_s,
        "op_ms_p50": _p(times, 50) / 1e6,
        "op_ms_p95": _p(times, 95) / 1e6,
        "adc_samples_per_s": sum(r.adc_samples for r in rounds) / busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "freq_err_p95_pct": f95,
        "power_err_p95_db": p95,
    }


def _mean_op_s(rounds) -> float:
    times = [t for r in rounds for t in r.times_ns]
    return sum(times) / len(times) / 1e9


def _trace_overhead(wl, st, items, rounds) -> float:
    """Median over scenarios of traced / untraced median operation time."""
    kind = getattr(wl, "kind", None)
    if kind is None:
        return 0.0
    by_kind: dict[tuple, list] = {}
    for r in rounds:
        for item, t in zip(items, r.times_ns):
            by_kind.setdefault(kind(st, item), []).append(t)
    ratios = [
        statistics.median(times) / statistics.median(by_kind[(scenario, False)])
        for (scenario, traced), times in by_kind.items()
        if traced and (scenario, False) in by_kind
    ]
    return statistics.median(ratios) if ratios else 0.0


def _per_layer(tr, setups, rounds, untraced_rounds, build_s, trace_overhead, checks) -> dict:
    s = tr.summary(*setups[0][2])
    checks["setup_counts_repeat"] = all(
        tr.summary(*x[2]).label_counts() == s.label_counts() for x in setups[1:]
    )
    sums = [tr.summary(*r.spans) for r in rounds]
    r0 = sums[0]
    checks["round_counts_repeat"] = all(x.label_counts() == r0.label_counts() for x in sums[1:])
    trace_records = [r.trace_records for r in rounds]
    checks["trace_records_repeat"] = len(set(trace_records)) == 1

    def med(f):
        return statistics.median(f(x) for x in sums)

    cells = setups[0][1].cal_cells
    m = {}
    for layer in ("readout", "stub", "coupling", "filters", "core"):
        m[f"{layer}.calls"] = r0.calls(layer)
        m[f"{layer}.self_ms"] = med(lambda x: x.self_ms(layer))
    for layer in ("readout", "stub", "coupling", "controller", "core"):
        m[f"{layer}.setup_self_ms"] = s.self_ms(layer)
    m["readout.us_per_call"] = m["readout.self_ms"] * 1e3 / m["readout.calls"] if m["readout.calls"] else 0.0
    m["readout.calls_per_cal_cell"] = s.calls("readout") / cells if cells else 0.0

    entries = r0.label_calls(*ESTIMATION_ENTRIES)
    no_signal = r0.label_raised("NoSignalError", *ESTIMATION_ENTRIES)
    m["estimator.build_s"] = build_s
    m["estimator.estimate_calls"] = r0.label_calls(*ESTIMATE_SITES)
    est_us = np.concatenate([x.label_durations_us(*ESTIMATE_SITES) for x in sums])
    m["estimator.estimate_us_p50"] = float(np.median(est_us)) if len(est_us) else 0.0
    m["estimator.self_ms"] = med(lambda x: x.self_ms("estimator"))
    m["estimator.no_signal_share"] = no_signal / entries if entries else 0.0
    m["estimator.error_share"] = (
        (r0.label_raised("", *ESTIMATION_ENTRIES) - no_signal) / entries if entries else 0.0
    )

    samples = r0.label_calls("engine->on_sample")
    m["controller.on_sample_calls"] = samples
    m["controller.self_ms"] = med(lambda x: x.self_ms("controller"))
    m["controller.estimates_per_sample"] = r0.label_calls("controller->estimate") / samples if samples else 0.0

    m["engine.runs"] = r0.label_calls("cli->run", "workloads->run")
    m["engine.self_ms"] = med(lambda x: x.self_ms("engine"))
    m["engine.trace_records"] = trace_records[0]
    m["engine.cal_builds"] = s.label_calls("engine->build_calibration") + r0.label_calls("engine->build_calibration")
    m["engine.trace_overhead_ratio"] = trace_overhead

    m["cli.calls"] = r0.label_calls("workloads->cli_main")
    m["cli.self_ms"] = med(lambda x: x.self_ms("cli"))
    m["cli.write_ms"] = med(lambda x: x.label_total_ms("cli->trace_to_csv", "cli->samples_to_csv"))
    m["bench.tracing_overhead_ratio"] = _mean_op_s(rounds) / _mean_op_s(untraced_rounds)
    return m


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
                 batch: int | None = None, setup_reps: int = SETUP_REPS):
    """Measure one workload; returns (result line dict, metadata dict)."""
    os.makedirs(work_dir, exist_ok=True)
    wl = workloads.make(name, work_dir)
    items = wl.batch(seed, batch or wl.batch_size)
    tr = tracing.Tracer()
    setups = _setups(wl, setup_reps if not trace else 1)
    st = setups[-1][1].state
    checks = {"untraced_without_wrappers": tr.restored()}
    untraced = _rounds(wl, st, items, seconds / 2 if trace else seconds)
    all_rounds = list(untraced)
    if not trace:
        metrics = _end_to_end(setups, untraced)
        units = END_TO_END
    else:
        tr.install()
        try:
            traced_setups = _setups(wl, TRACED_SETUPS, tr)
            traced = _rounds(wl, traced_setups[-1][1].state, items, seconds / 2, tr)
        finally:
            tr.uninstall()
        checks["wrappers_restored"] = tr.restored()
        all_rounds += traced
        metrics = _per_layer(
            tr, traced_setups, traced, untraced,
            statistics.median(s.build_s for _, s, _, _ in setups),
            _trace_overhead(wl, st, items, untraced), checks,
        )
        tr.save(os.path.join(work_dir, f"spans-{name}.npz"))
        units = PER_LAYER
    digests = {r.digest for r in all_rounds}
    checks["digest_repeats"] = len(digests) == 1
    checks["failures_repeat"] = len({tuple(r.failures) for r in all_rounds}) == 1

    # Counted once per distinct seeded operation: every round repeats the
    # batch, and must give the same outputs, so the counts depend on the seed
    # alone and not on how many rounds the host's speed allowed.
    attempted = len(items)
    failed = len(all_rounds[0].failures)
    raw_ns = [t for r in untraced for t in r.times_ns]
    probes = [p for r in untraced for p in r.probes_ns]
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "digest": all_rounds[0].digest,
        "checks": checks,
        "batch": len(items),
        "rounds": len(all_rounds),
        "ops_timed": sum(len(r.times_ns) for r in all_rounds),
        # The untraced phase unscaled, and the probe's mean over PROBE_REF_NS.
        "raw_ops_per_s": len(raw_ns) / (sum(raw_ns) / 1e9),
        "raw_op_ms_p95": _p(raw_ns, 95) / 1e6,
        "host_slowness": statistics.fmean(probes) / PROBE_REF_NS,
        "probes": len(probes),
        "round_busy_s": [sum(r.times_ns) / 1e9 for r in all_rounds],
        "round_scales": [r.scale for r in all_rounds],
        "setup_runs_s": [dt / 1e9 for dt, _, _, _ in setups],
        "setup_scales": [k for _, _, _, k in setups],
        "failed_share": failed / attempted,
        "failures": all_rounds[0].failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "git_sha": git_sha(Path(__file__).resolve().parent.parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
    return result, info


def print_result(result: dict, info: dict) -> None:
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
