"""Per-sample acquisition, controller and per-dt-point trace oracles, and per-cell CSV writers.

swsense.engine pushes the source lines through the stages once per line
state, for its acquisitions and its trace alike, and formats each
distinct row tail of trace.csv and of samples_stage<k>.csv once. A sample that repeats a
fixed point of on_sample, with no event since the one before, only adds
its t_s to its stage's last stretch of equal rows, with no acquisition
and no on_sample call. The trace is stored as maximal runs of dt points,
found by reading only the first dt point at or after each change point.
The functions here recompute every acquisition, every controller
decision and every dt point's record from scratch, pushing each source
line through each stage and passing every sample, repeat or not, through
on_sample, and format every cell of every row. They read a finished
engine._Runner and the rows of Trace.samples, and are used only by
tests, which require the two paths to give equal codes, equal decisions,
equal records and byte-equal CSV files.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import fields
from operator import attrgetter, itemgetter

from swsense.controller import ControllerState, on_sample
from swsense.core import watts_to_dbm
from swsense.coupling import sampled_forward_amplitude
from swsense.engine import (
    _IDLE_VALUES,
    _SAMPLE_COLUMNS,
    _SILENT_DBM,
    StageSnapshot,
    Trace,
    TraceRecord,
)
from swsense.filters import notch_s21_db, stopband_gamma
from swsense.readout import TapCodes, chain_readout_lines

# The values of a per-sample log row after t_s.
_row_values = itemgetter(*_SAMPLE_COLUMNS[1:])


def _filter_state_at(runner, k: int, t: float):
    hist = runner.filter_hist[k]
    i = bisect_right(hist, t, key=lambda e: e[0]) - 1
    return hist[i][1]


def _source_lines(runner, t: float) -> list[tuple[float, float, int]]:
    lines = []
    for si, src in enumerate(runner.sc.sources):
        if src.active(t):
            lines.extend((f, w, si) for f, w in runner.expanded[si])
    return lines


def _through_stage(runner, k: int, lines, t: float):
    spec = runner.sc.stages[k]
    state = _filter_state_at(runner, k, t)
    out = []
    for f, w, si in lines:
        w2 = w * 10.0 ** (-spec.chain.through_loss_db_at(f) / 10.0)
        p_dbm = watts_to_dbm(w2) if w2 > 0.0 else _SILENT_DBM
        s21 = notch_s21_db(spec.notch, state, f, p_dbm, t)
        out.append((f, w2 * 10.0 ** (s21 / 10.0), si))
    return out


def acquire(runner, k: int, t_deliver: float) -> TapCodes:
    """Stage k's ADC codes delivered at t_deliver, converted one sample period earlier."""
    spec = runner.sc.stages[k]
    tau = t_deliver - spec.chain.adc.sample_period
    lines = _source_lines(runner, tau)
    for j in range(k):
        lines = _through_stage(runner, j, lines, tau)
    state = _filter_state_at(runner, k, tau)
    pairs, ratios = [], []
    for f, w, _ in lines:
        if w <= 0.0:
            continue
        w_f = w * 10.0 ** (-spec.chain.through_loss_db_at(f) / 10.0)
        g = stopband_gamma(spec.notch, state, f, watts_to_dbm(w_f), tau)
        ratios.append(sampled_forward_amplitude(g, spec.electrical_delay_s, f, spec.chain.directivity_db_at(f)))
        pairs.append((f, w))
    att_hist = runner.att_hist[k]
    att = att_hist[bisect_right(att_hist, tau, key=lambda e: e[0]) - 1][1]
    return chain_readout_lines(pairs, spec.chain, att, t_s=t_deliver, forward_ratios=ratios)


def decide(runner, k: int, rows: list[dict]) -> tuple[list[tuple], list[tuple]]:
    """Stage k's log rows replayed through on_sample, one call per row, repeats included.

    Returns the per-sample (mode, f_est_hz, p_est_dbm, action) and the
    actions as (kind, decided_s, effective_at_s, freq_hz, att_db).
    """
    spec = runner.sc.stages[k]
    state = ControllerState()
    log, actions = [], []
    for s in rows:
        codes = TapCodes(s["t_s"], s["code_oc"], s["code_l1"], s["code_l2"], s["att_db"])
        state, acts = on_sample(codes, state, spec.controller, runner.cals[k])
        est = state.last_estimate
        log.append(
            (
                state.mode,
                est.freq_hz if est else math.nan,
                est.power_dbm if est else math.nan,
                ";".join(a.kind for a in acts),
            )
        )
        actions += [(a.kind, s["t_s"], a.effective_at_s, a.freq_hz, a.att_db) for a in acts]
    return log, actions


def powers_at(runner, t: float) -> tuple[list[list[float]], list[list[float]]]:
    """Per-stage, per-source input/output powers (dBm) at time t."""
    n_src = len(runner.sc.sources)
    ins, outs = [], []
    lines = _source_lines(runner, t)
    for k in range(len(runner.sc.stages)):
        per_in = [0.0] * n_src
        for f, w, si in lines:
            per_in[si] += w
        lines = _through_stage(runner, k, lines, t)
        per_out = [0.0] * n_src
        for f, w, si in lines:
            per_out[si] += w
        ins.append([watts_to_dbm(w) if w > 0 else _SILENT_DBM for w in per_in])
        outs.append([watts_to_dbm(w) if w > 0 else _SILENT_DBM for w in per_out])
    return ins, outs


def build_records(runner, samples: list[list[dict]]) -> list[TraceRecord]:
    """One freshly computed TraceRecord per dt point of a finished run whose per-stage log rows are samples."""
    sc = runner.sc
    n = int(round(sc.duration_s / sc.dt_s))
    records = []
    sample_times = [[s["t_s"] for s in samples[k]] for k in range(len(sc.stages))]
    for i in range(n):
        t = i * sc.dt_s
        ins, outs = powers_at(runner, t)
        snaps = []
        for k in range(len(sc.stages)):
            j = bisect_right(sample_times[k], t) - 1
            values = _row_values(samples[k][j]) if j >= 0 else _IDLE_VALUES
            fstate = _filter_state_at(runner, k, t)
            snaps.append(StageSnapshot(*values, fstate.engaged, fstate.f_center_hz))
        records.append(
            TraceRecord(
                t_s=t,
                in_dbm=tuple(tuple(x) for x in ins),
                out_dbm=tuple(tuple(x) for x in outs),
                stages=tuple(snaps),
            )
        )
    return records


def max_output_dbm(records: list[TraceRecord]) -> float:
    """Metrics.max_output_dbm summed over every record."""
    totals = [sum(10.0 ** (x / 10.0) for x in r.out_dbm[-1]) for r in records]
    peak = max(totals)
    return watts_to_dbm(peak * 1e-3) if peak > 0 else _SILENT_DBM


def trace_to_csv(trace: Trace, path: str) -> None:
    """trace.csv with every cell of every row formatted by csv.writer."""
    n_stage = len(trace.scenario.stages)
    n_src = len(trace.scenario.sources)
    cols = ["t_s"]
    for k in range(n_stage):
        cols += [f"s{k}_in{i}_dbm" for i in range(n_src)]
        cols += [f"s{k}_out{i}_dbm" for i in range(n_src)]
        cols += [f"s{k}_{f.name}" for f in fields(StageSnapshot)]
    sampled = attrgetter(*_SAMPLE_COLUMNS[1:])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in trace.records:
            row: list = [r.t_s]
            for k, s in enumerate(r.stages):
                row += r.in_dbm[k]
                row += r.out_dbm[k]
                row += sampled(s)
                row += (int(s.filter_engaged), s.filter_center_hz)
            w.writerow(row)


def samples_to_csv(trace: Trace, stage: int, path: str) -> None:
    """samples_stage<k>.csv with every cell of every row formatted by csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SAMPLE_COLUMNS)
        for s in trace.samples[stage]:
            w.writerow([s[c] for c in _SAMPLE_COLUMNS])
