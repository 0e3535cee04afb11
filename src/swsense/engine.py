"""Envelope-domain closed-loop simulation of sensing stages on a shared line.

Time is advanced on a fixed dt grid for trace logging, while each stage's
ADC samples on its own tick stream (seed-randomized phase, codes delivered
one sample period after conversion start) and its controller reacts with a
one-clock actuation delay. Stage k feeds stage k+1 through its pick-off
insertion loss and its notch; a reflective notch also perturbs what stage
k's own detectors see via the sampled forward amplitude.

A sample is only acquired and decided when it can differ from the one
before it: a stage whose controller state maps to itself, with no action
and no diagnostic, repeats its previous log row until a source edge, an
action of any stage or the end of a notch's tuning transition falls
between two of its conversions.

A traced run costs what its change points cost, not what its dt points or
samples cost. Each stage's samples are stored as maximal stretches with
equal values after t_s, which Trace.samples expands on first access; the
trace as maximal runs of dt points with equal powers and stage snapshots,
found by reading only the first dt point at or after each change. The CSV
writers format each stretch's or run's cells after t_s once.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field, fields, asdict
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .controller import (
    ACT_RELEASE,
    ACT_SET_ATT,
    ACT_TUNE,
    Action,
    ControllerConfig,
    ControllerState,
    on_sample,
)
from .codec import from_json, load, rewrite, save
from .core import Tone, check_not_bool, expand_modulated, watts_to_dbm
from .coupling import sampled_forward_amplitude
from .errors import OutOfBandError, TuningRangeError
from .estimator import CalibrationTable, build_calibration
from .filters import FilterState, NotchModel, notch_s21_db, stopband_gamma, release, tune
from .readout import ChainConfig, TapCodes, chain_readout_lines

_SILENT_DBM = -300.0

# Keys of a per-sample log dict and columns of its CSV. StageSnapshot
# declares every column but t_s first, in this order.
_SAMPLE_COLUMNS = ("t_s", "code_oc", "code_l1", "code_l2", "att_db", "f_est_hz", "p_est_dbm", "mode", "action")
# Snapshot values before a stage's first sample is delivered.
_IDLE_VALUES = (0, 0, 0, 0.0, math.nan, math.nan, "idle", "")


@dataclass(frozen=True)
class StageSpec:
    """One sensing stage: chain hardware, its controller, and its notch.

    electrical_delay_s, the one-way delay from the pick-off to the notch's
    reflection downstream, is a number >= 0 and finite, not a bool; anything
    else is a ValueError naming it.
    """

    chain: ChainConfig = field(default_factory=ChainConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    notch: NotchModel = field(default_factory=NotchModel)
    electrical_delay_s: float = 0.0

    def __post_init__(self):
        check_not_bool(self, "electrical_delay_s")
        if not 0.0 <= self.electrical_delay_s < math.inf:
            raise ValueError(f"electrical_delay_s must be >= 0 and finite, got {self.electrical_delay_s!r}")
        self.controller.check_chain(self.chain)


@dataclass(frozen=True)
class Scenario:
    """A closed-loop run: sources driving one or more cascaded stages.

    duration_s and dt_s are numbers, not bools, and seed is an int >= 0;
    anything else is a ValueError naming the field. run checks the rest of
    the scenario's domain.
    """

    duration_s: float
    sources: tuple[Tone, ...] = ()
    stages: tuple[StageSpec, ...] = ()
    dt_s: float = 25e-9
    seed: int = 0

    def __post_init__(self):
        check_not_bool(self, "duration_s", "dt_s", "seed")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "stages", tuple(self.stages))


@dataclass(frozen=True)
class StageSnapshot:
    """Controller/filter observables of one stage at one trace instant."""

    code_oc: int
    code_l1: int
    code_l2: int
    att_db: float
    f_est_hz: float
    p_est_dbm: float
    mode: str
    action: str
    filter_engaged: bool
    filter_center_hz: float


@dataclass(frozen=True)
class TraceRecord:
    """Powers and stage observables at one dt instant."""

    t_s: float
    in_dbm: tuple[tuple[float, ...], ...]  # [stage][source]
    out_dbm: tuple[tuple[float, ...], ...]
    stages: tuple[StageSnapshot, ...]


@dataclass(frozen=True)
class TraceRun:
    """The dt points start..stop-1 of a trace, which share their powers and stage snapshots.

    Runs are maximal: two adjacent runs differ in their powers or in a
    stage snapshot, so a steady stretch of the trace is one run.
    """

    start: int
    stop: int
    in_dbm: tuple[tuple[float, ...], ...]  # [stage][source]
    out_dbm: tuple[tuple[float, ...], ...]
    stages: tuple[StageSnapshot, ...]


@dataclass
class Metrics:
    """Summary quantities of one run."""

    response_time_engage_s: float | None = None
    response_time_release_s: float | None = None
    limit_cycle: bool = False
    limit_cycle_period_s: float | None = None
    final_output_dbm: list[float] = field(default_factory=list)  # per source
    suppression_db: list[float | None] = field(default_factory=list)
    max_output_dbm: float | None = None
    diagnostics: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AppliedAction:
    """An action as applied by the engine (or refused, with ok=False)."""

    stage: int
    kind: str
    decided_s: float
    effective_at_s: float
    freq_hz: float | None = None
    att_db: float | None = None
    ok: bool = True


@dataclass
class Trace:
    """Everything a run produced."""

    scenario: Scenario
    runs: list[TraceRun]  # the dt grid in order, each point in one run; empty when untraced
    sample_runs: list[list[tuple[list[float], tuple]]]  # per stage, maximal stretches of (t_s values, values after t_s)
    actions: list[AppliedAction]
    filter_hist: list[list[tuple[float, FilterState]]]
    metrics: Metrics

    @cached_property
    def records(self) -> list[TraceRecord]:
        """One TraceRecord per dt point, expanded from the runs on first access."""
        dt = self.scenario.dt_s
        return [TraceRecord(i * dt, r.in_dbm, r.out_dbm, r.stages) for r in self.runs for i in range(r.start, r.stop)]

    @cached_property
    def samples(self) -> list[list[dict]]:
        """Per stage, one dict per ADC delivery keyed by _SAMPLE_COLUMNS, expanded from sample_runs on first access."""
        return [[dict(zip(_SAMPLE_COLUMNS, (t, *v))) for times, v in stage for t in times] for stage in self.sample_runs]


_CAL_CACHE: dict[tuple[ChainConfig, int, int], CalibrationTable] = {}


def clear_calibration_cache() -> None:
    _CAL_CACHE.clear()


def get_calibration(cfg: ChainConfig, ctrl: ControllerConfig) -> CalibrationTable:
    """Build (or reuse, keyed by the chain's value and AGC window) the table a controller estimates against, over the chain's default grid."""
    key = (cfg, ctrl.agc_high_code, ctrl.agc_low_code)
    if key not in _CAL_CACHE:
        _CAL_CACHE[key] = build_calibration(cfg, ctrl=ctrl)
    return _CAL_CACHE[key]


def _validate(sc: Scenario, expanded: list[list[tuple[float, float]]]) -> None:
    """ValueError or OutOfBandError unless sc can run; expanded holds the (freq, watts) lines of each source."""
    # A NaN or infinite duration would never end the sample loop.
    if not (0.0 < sc.duration_s < math.inf and 0.0 < sc.dt_s < math.inf):
        raise ValueError("duration_s and dt_s must be positive and finite")
    if not sc.stages:
        raise ValueError("scenario needs at least one stage")
    lines = np.array([f for src_lines in expanded for f, _ in src_lines])
    for k, st in enumerate(sc.stages):
        period = st.chain.adc.sample_period
        if sc.dt_s > period / 4.0 + 1e-15:
            raise ValueError(
                f"dt_s={sc.dt_s} too coarse for stage {k}: need <= ADC period/4 = {period / 4.0}"
            )
        try:
            st.chain.check_band(lines)
        except OutOfBandError as exc:
            # Reworded in place: the chain's check_band is where a band refusal is made.
            exc.args = (f"stage {k}: source line {exc}",)
            raise


class _Lines(NamedTuple):
    """The source lines through every stage in one line state."""

    pairs: tuple[tuple[tuple[float, float], ...], ...]  # [stage] (freq, watts) of each line reaching it
    ratios: tuple[tuple[float, ...], ...]  # [stage] sampled forward amplitude of each pair
    in_dbm: tuple[tuple[float, ...], ...]  # [stage][source]
    out_dbm: tuple[tuple[float, ...], ...]
    state: tuple  # the line state, as _Runner._line_state gives it


def _first_point(c: float, dt: float) -> int:
    """The first dt point i >= 0 with c <= i * dt, as that float comparison decides it.

    ceil(c / dt) can be one off either way where c / dt or i * dt rounds,
    so it is moved until (i - 1) * dt < c <= i * dt. That takes a step or
    two only while c / dt is well below 2**53, where consecutive integers
    are distinct floats; callers pass no c after a run's last point.
    """
    if c <= 0.0:
        return 0
    i = math.ceil(c / dt)
    while i * dt < c:
        i += 1
    while i > 0 and (i - 1) * dt >= c:
        i -= 1
    return i


def _at(hist: list[tuple[float, object]], t: float):
    """The value of a chronological (time, value) history at time t."""
    return hist[bisect_right(hist, t, key=itemgetter(0)) - 1][1]


class _Runner:
    def __init__(self, sc: Scenario, calibrations: list[CalibrationTable] | None):
        self.expanded = [expand_modulated(src) for src in sc.sources]
        _validate(sc, self.expanded)
        self.sc = sc
        rng = np.random.default_rng(sc.seed)
        self.phase = [
            float(rng.uniform(0.0, st.chain.adc.sample_period)) for st in sc.stages
        ]
        if calibrations is None:
            calibrations = [get_calibration(st.chain, st.controller) for st in sc.stages]
        elif not (
            isinstance(calibrations, (list, tuple))
            and len(calibrations) == len(sc.stages)
            and all(isinstance(c, CalibrationTable) and c.cfg == st.chain for c, st in zip(calibrations, sc.stages))
        ):
            raise ValueError(
                "calibrations must be a list or tuple holding one table per stage, "
                "a CalibrationTable built for that stage's chain"
            )
        self.cals = calibrations
        self.filter_hist: list[list[tuple[float, FilterState]]] = [
            [(-math.inf, FilterState())] for _ in sc.stages
        ]
        self.att_hist: list[list[tuple[float, float]]] = [[(-math.inf, 0.0)] for _ in sc.stages]
        # Every time at which the line state or an attenuator setting can
        # change, sorted, and an inf past them all.
        self.events = sorted(x for src in sc.sources for x in (src.t_on_s, src.t_off_s)) + [math.inf]
        # The same without the attenuator steps: the times at which the line state can change.
        self.line_events = self.events.copy()
        self.line_cache: dict[tuple, _Lines] = {}
        # The lines of _acquire's last lookup, which hold over the span [lo, hi) of line_events around it.
        self.span_lo, self.span_hi, self.span_lines = math.inf, -math.inf, None
        self.ctrl_state = [ControllerState() for _ in sc.stages]
        self.sample_runs: list[list[tuple[list[float], tuple]]] = [[] for _ in sc.stages]
        self.actions: list[AppliedAction] = []
        self.diagnostics: list[str] = []

    # ---- line propagation ----

    def _line_state(self, t: float) -> tuple:
        """Active-source flags and, per stage, (engaged, f_center_hz, in transition) of its notch at time t.

        The notch functions read a FilterState and t only through these
        three values, so two times with equal line states pass every line
        through every stage alike.
        """
        stages = []
        for hist in self.filter_hist:
            fs = _at(hist, t)
            stages.append((fs.engaged, fs.f_center_hz, fs.in_transition(t)))
        return tuple(src.active(t) for src in self.sc.sources), tuple(stages)

    def _lines(self, t: float) -> _Lines:
        """The source lines pushed through every stage at time t, once per line state.

        Each call builds and looks up t's line state; _acquire calls it once
        per span of line_events, _build_runs once per change point and
        _metrics once. A limit cycle that returns to a notch setting returns
        to its line state and reuses the lines pushed through there. A
        filter history only grows past the event being processed, so the
        line state of a time already reached never changes.
        """
        key = self._line_state(t)
        if key in self.line_cache:
            return self.line_cache[key]
        n_src = len(self.sc.sources)
        lines = [(f, w, si) for si, on in enumerate(key[0]) if on for f, w in self.expanded[si]]
        pairs, ratios, ins, outs = [], [], [], []
        for k, spec in enumerate(self.sc.stages):
            state = _at(self.filter_hist[k], t)
            chain, notch = spec.chain, spec.notch
            per_in, per_out = [0.0] * n_src, [0.0] * n_src
            stage_pairs, stage_ratios, through = [], [], []
            for f, w, si in lines:
                per_in[si] += w
                w2 = w * 10.0 ** (-chain.through_loss_db_at(f) / 10.0)
                p_dbm = watts_to_dbm(w2) if w2 > 0.0 else _SILENT_DBM
                if w > 0.0:
                    g = stopband_gamma(notch, state, f, p_dbm, t)
                    stage_ratios.append(
                        sampled_forward_amplitude(g, spec.electrical_delay_s, f, chain.directivity_db_at(f))
                    )
                    stage_pairs.append((f, w))
                w_out = w2 * 10.0 ** (notch_s21_db(notch, state, f, p_dbm, t) / 10.0)
                per_out[si] += w_out
                through.append((f, w_out, si))
            lines = through
            pairs.append(tuple(stage_pairs))
            ratios.append(tuple(stage_ratios))
            ins.append(tuple(watts_to_dbm(w) if w > 0 else _SILENT_DBM for w in per_in))
            outs.append(tuple(watts_to_dbm(w) if w > 0 else _SILENT_DBM for w in per_out))
        self.line_cache[key] = _Lines(tuple(pairs), tuple(ratios), tuple(ins), tuple(outs), key)
        return self.line_cache[key]

    # ---- sampling ----

    def _acquire(self, k: int, t_deliver: float) -> TapCodes:
        """Stage k's codes delivered at t_deliver, read from the lines and the setting at its conversion time.

        The line state is constant between consecutive line_events, each
        change taking effect at its event time. So while the conversion
        time lies in the span [lo, hi) of line_events around the last
        lookup, its lines are that lookup's, and only a conversion outside
        it calls _lines. _add_line_event ends the span at a line event
        inserted inside it.
        """
        spec = self.sc.stages[k]
        tau = t_deliver - spec.chain.adc.sample_period
        if not self.span_lo <= tau < self.span_hi:
            events = self.line_events
            j = bisect_right(events, tau)
            self.span_lo, self.span_hi = events[j - 1] if j else -math.inf, events[j]
            self.span_lines = self._lines(tau)
        lines = self.span_lines
        return chain_readout_lines(lines.pairs[k], spec.chain, _at(self.att_hist[k], tau), t_deliver, lines.ratios[k])

    def _add_line_event(self, x: float) -> None:
        """Insert x, a time at which the line state can change, into line_events, ending the lookup span before it.

        An action takes effect after every conversion already read, so x
        lies above the span's lo; were it not, the span would be left empty,
        and the next conversion looked up afresh.
        """
        insort(self.line_events, x)
        if x < self.span_hi:
            self.span_hi = x

    def _apply(self, k: int, decided_s: float, act: Action) -> None:
        applied = AppliedAction(
            stage=k,
            kind=act.kind,
            decided_s=decided_s,
            effective_at_s=act.effective_at_s,
            freq_hz=act.freq_hz,
            att_db=act.att_db,
        )
        spec = self.sc.stages[k]
        insort(self.events, act.effective_at_s)
        if act.kind == ACT_TUNE:
            try:
                new = tune(spec.notch, act.freq_hz, act.effective_at_s)
                self.filter_hist[k].append((act.effective_at_s, new))
                insort(self.events, new.transition_until_s)
                self._add_line_event(act.effective_at_s)
                self._add_line_event(new.transition_until_s)
            except TuningRangeError as exc:
                applied.ok = False
                self.diagnostics.append(f"stage {k}: {exc}")
        elif act.kind == ACT_RELEASE:
            current = self.filter_hist[k][-1][1]
            self.filter_hist[k].append((act.effective_at_s, release(current)))
            self._add_line_event(act.effective_at_s)
        elif act.kind == ACT_SET_ATT:
            self.att_hist[k].append((act.effective_at_s, act.att_db))
        self.actions.append(applied)

    def run(self, collect_trace: bool) -> Trace:
        """Deliver every stage's samples in time order, then build the trace runs and metrics.

        A sample is a repeat when its stage's previous sample was a fixed
        point of on_sample (no action, no diagnostic, no pending mode, and
        the state mapped to itself) and no event time lies between the two
        conversions. Its codes, and so its decision, are the previous
        sample's, so its t_s joins its stage's last stretch, with no
        acquisition and no on_sample call. A decided sample joins that
        stretch when its values equal the stretch's, so stretches are
        maximal. An action decided at t takes effect at t + clock_period,
        after every conversion already processed, so no repeat is ever undone
        by a later event.
        """
        sc = self.sc
        events = self.events
        # Per stage: the conversion time of its last sample if that was a fixed point, else None.
        fixed_tau: list[float | None] = [None] * len(sc.stages)
        # Merge per-stage tick streams chronologically.
        heap = []
        for k, st in enumerate(sc.stages):
            heapq.heappush(heap, (self.phase[k], k))
        while heap:
            t, k = heapq.heappop(heap)
            if t >= sc.duration_s:
                continue
            period = sc.stages[k].chain.adc.sample_period
            heapq.heappush(heap, (t + period, k))
            tau = t - period
            stretches = self.sample_runs[k]
            if fixed_tau[k] is not None and events[bisect_right(events, fixed_tau[k])] > tau:
                stretches[-1][0].append(t)
                fixed_tau[k] = tau
                continue
            codes = self._acquire(k, t)
            prev = self.ctrl_state[k]
            state, acts = on_sample(codes, prev, sc.stages[k].controller, self.cals[k])
            self.ctrl_state[k] = state
            for act in acts:
                self._apply(k, t, act)
            if state.diagnostic:
                self.diagnostics.append(f"stage {k} at {t:.3e}s: {state.diagnostic}")
            fixed = not acts and state.diagnostic is None and prev.pending_at_s is None and state == prev
            fixed_tau[k] = tau if fixed else None
            est = state.last_estimate
            values = (
                codes.code_oc,
                codes.code_l1,
                codes.code_l2,
                codes.att_db,
                est.freq_hz if est else math.nan,
                est.power_dbm if est else math.nan,
                state.mode,
                ";".join(a.kind for a in acts),
            )
            if not stretches or stretches[-1][1] != values:
                stretches.append(([], values))
            stretches[-1][0].append(t)

        runs = self._build_runs() if collect_trace else []
        return Trace(
            scenario=sc,
            runs=runs,
            sample_runs=self.sample_runs,
            actions=self.actions,
            filter_hist=self.filter_hist,
            metrics=self._metrics(runs),
        )

    # ---- post-processing ----

    def _build_runs(self) -> list[TraceRun]:
        """The dt grid as maximal runs of points with equal powers and stage snapshots.

        A stage's snapshot is the values of its last delivered sample (idle
        before the first) and its notch setting. These and the powers change
        only at a change point: the first sample of a stretch of the stage's
        log, or an event (a source edge, the effective time of an
        action or the end of a tuning transition). Only the first dt point at
        or after each change point is read, once, and it starts a run unless
        its powers and snapshots equal those of the run before it, so an
        event that changes nothing, such as an attenuator step, starts none.
        """
        sc = self.sc
        dt = sc.dt_s
        n = int(round(sc.duration_s / dt))
        starts = [[times[0] for times, _ in stretches] for stretches in self.sample_runs]  # per stage, each stretch's first t_s
        # 0.0 reads point 0 whenever the grid has a point. A change after the
        # last point, such as a far source edge or the inf that ends the
        # events, starts no run and is never mapped to a point.
        changes = {0.0, *self.events, *(t for times in starts for t in times)}
        last = (n - 1) * dt
        points = sorted({_first_point(c, dt) for c in changes if c <= last}) if n else []
        heads = []  # (start, in_dbm, out_dbm, per-stage snapshot values) of each run
        for i in points:
            t = i * dt
            lines = self._lines(t)
            snaps = []
            for k, (engaged, f_center_hz, _) in enumerate(lines.state[1]):
                j = bisect_right(starts[k], t) - 1
                snaps.append((*(self.sample_runs[k][j][1] if j >= 0 else _IDLE_VALUES), engaged, f_center_hz))
            head = (lines.in_dbm, lines.out_dbm, tuple(snaps))
            if not heads or head != heads[-1][1:]:
                heads.append((i, *head))
        stops = [h[0] for h in heads[1:]] + [n]
        return [
            TraceRun(start, stop, in_dbm, out_dbm, tuple(StageSnapshot(*v) for v in snaps))
            for (start, in_dbm, out_dbm, snaps), stop in zip(heads, stops)
        ]

    def _metrics(self, runs: list[TraceRun]) -> Metrics:
        sc = self.sc
        m = Metrics(diagnostics=list(self.diagnostics))
        rises, falls = _edges(sc, "rise"), _edges(sc, "fall")
        if rises:
            m.response_time_engage_s = _response_time(self.actions, 0, ACT_TUNE, rises[0])
        if falls:
            m.response_time_release_s = _response_time(self.actions, 0, ACT_RELEASE, falls[0])
        for k in range(len(sc.stages)):
            cyc, period = _limit_cycle(self.filter_hist[k])
            if cyc:
                m.limit_cycle = True
                m.limit_cycle_period_s = period
                break
        t_end = sc.duration_s - sc.dt_s / 2.0
        lines = self._lines(t_end)
        for si, src in enumerate(sc.sources):
            if src.active(t_end):
                final = lines.out_dbm[-1][si]
                m.final_output_dbm.append(final)
                m.suppression_db.append(lines.in_dbm[0][si] - final)
            else:
                m.final_output_dbm.append(_SILENT_DBM)
                m.suppression_db.append(None)
        if runs:
            peak = max(sum(10.0 ** (x / 10.0) for x in out) for out in {r.out_dbm[-1] for r in runs})
            m.max_output_dbm = watts_to_dbm(peak * 1e-3) if peak > 0 else _SILENT_DBM
        return m


def run(
    sc: Scenario,
    collect_trace: bool = True,
    calibrations: list[CalibrationTable] | None = None,
) -> Trace:
    """Simulate a scenario; returns the full trace with metrics attached.

    Before any sample, the scenario is refused with a ValueError for a
    duration_s or dt_s that is not positive and finite, no stage, or a dt_s
    coarser than a quarter of a stage's ADC period; and, stage by stage,
    with the chain's check_band's OutOfBandError, reworded as "stage k:
    source line ...", for a source line outside its band: above the stub
    band (naming the largest line) before outside a coupler's band (naming
    the first line, in source order).
    """
    return _Runner(sc, calibrations).run(collect_trace)


def _limit_cycle(hist: list[tuple[float, FilterState]]) -> tuple[bool, float | None]:
    toggles = []
    last = False
    for t, st in hist:
        if st.engaged != last:
            toggles.append((t, st.engaged))
            last = st.engaged
    if len(toggles) < 4:
        return False, None
    engages = [t for t, on in toggles if on]
    if len(engages) < 2:
        return False, None
    intervals = np.diff(engages)
    period = float(intervals.mean())
    if len(intervals) >= 2 and float(intervals.std()) / period >= 0.2:
        return False, None
    return True, period


def _check_stage(trace: Trace, stage: int) -> None:
    """ValueError unless stage is an int (not a bool) in range(len(stages)) of the trace's scenario."""
    n = len(trace.scenario.stages)
    if isinstance(stage, bool) or not isinstance(stage, int) or not 0 <= stage < n:
        raise ValueError(f"stage {stage!r} is not a stage of this trace: need an int in range({n})")


def detect_limit_cycle(trace: Trace, stage: int = 0) -> tuple[bool, float | None]:
    """(cycling?, mean engage-to-engage period) for one stage's notch.

    A limit cycle is at least four engage/disengage toggles whose
    engage-to-engage intervals vary by less than 20 percent.

    Domain: stage is an int in range(len(trace.scenario.stages)), not a
    bool, and the run lasts more than 10 controller clocks; anything else
    is a ValueError naming it.
    """
    _check_stage(trace, stage)
    clock = trace.scenario.stages[stage].controller.clock_period
    if trace.scenario.duration_s <= 10.0 * clock:
        raise ValueError("trace too short to judge cycling (need > 10 controller clocks)")
    return _limit_cycle(trace.filter_hist[stage])


def _edges(sc: Scenario, edge: str) -> list[float]:
    """Sorted source power edges inside the run: turn-ons for "rise", turn-offs for "fall"."""
    if edge == "rise":
        return sorted(src.t_on_s for src in sc.sources if src.t_on_s > 0.0)
    return sorted(src.t_off_s for src in sc.sources if src.t_off_s < sc.duration_s)


def _response_time(actions: list[AppliedAction], stage: int, kind: str, t_edge: float) -> float | None:
    """Seconds from t_edge until the stage's first applied `kind` action after it takes effect."""
    for a in actions:
        if a.stage == stage and a.kind == kind and a.ok and a.effective_at_s > t_edge:
            return a.effective_at_s - t_edge
    return None


def measure_response_time(trace: Trace, edge: str = "rise", stage: int = 0) -> float:
    """Seconds from a source power edge to the stage's filter action taking effect.

    Domain: stage is an int in range(len(trace.scenario.stages)), not a
    bool, and edge is "rise" or "fall", of which the scenario has exactly
    one; anything else is a ValueError naming it, as is an edge that no
    filter action follows.
    """
    _check_stage(trace, stage)
    kind = {"rise": ACT_TUNE, "fall": ACT_RELEASE}.get(edge)
    if kind is None:
        raise ValueError("edge must be 'rise' or 'fall'")
    edges = _edges(trace.scenario, edge)
    if len(edges) != 1:
        raise ValueError(f"need exactly one {edge} edge, found {len(edges)}")
    dt = _response_time(trace.actions, stage, kind, edges[0])
    if dt is None:
        raise ValueError(f"no filter action follows the {edge} edge")
    return dt


# ---------------- scenario JSON ----------------


def scenario_from_dict(d: dict) -> Scenario:
    """Scenario from its JSON form.

    Every key and value is checked, at the top level and in each source,
    stage and stage block. A malformed entry is a ValueError whose message
    starts with its JSON path, such as "sources[1].power_dbm" or
    "stages[0].chain.stub".
    """
    return from_json(Scenario, d, "scenario", root=True)


def load_scenario(path: str) -> Scenario:
    """Scenario from a JSON file, checked as scenario_from_dict checks it."""
    return load(Scenario, path, "scenario", root=True)


def save_scenario(sc: Scenario, path: str) -> None:
    save(sc, path)


# ---------------- trace artifacts ----------------


def _write_stretches(fh, stretches) -> None:
    """Write CSV rows of a t_s cell and a stretch's cells, formatting each stretch's cells once.

    stretches yields (t_s values, cells after t_s) pairs, each with at
    least one t_s. csv.writer writes a float as repr(), its shortest form
    that parses back exactly, so each row equals the one csv.writer writes
    for [t_s, *cells].
    """
    buf = io.StringIO()
    tail_writer = csv.writer(buf)
    for times, cells in stretches:
        buf.seek(0)
        buf.truncate()
        tail_writer.writerow(cells)
        tail = "," + buf.getvalue()
        fh.write(tail.join(map(repr, times)) + tail)


def trace_to_csv(trace: Trace, path: str) -> None:
    """Write the dt-grid trace; one row per instant, stage columns prefixed s<k>_.

    The cells after t_s are the same for every point of a run, so they are
    formatted once per run.
    """
    n_stage = len(trace.scenario.stages)
    n_src = len(trace.scenario.sources)
    dt = trace.scenario.dt_s
    cols = ["t_s"]
    for k in range(n_stage):
        cols += [f"s{k}_in{i}_dbm" for i in range(n_src)]
        cols += [f"s{k}_out{i}_dbm" for i in range(n_src)]
        cols += [f"s{k}_{f.name}" for f in fields(StageSnapshot)]
    sampled = attrgetter(*_SAMPLE_COLUMNS[1:])

    def stretches():
        for r in trace.runs:
            row: list = []
            for k, s in enumerate(r.stages):
                row += r.in_dbm[k]
                row += r.out_dbm[k]
                row += sampled(s)
                row += (int(s.filter_engaged), s.filter_center_hz)
            yield (i * dt for i in range(r.start, r.stop)), row

    with rewrite(path, newline="") as fh:
        csv.writer(fh).writerow(cols)
        _write_stretches(fh, stretches())


def samples_to_csv(trace: Trace, stage: int, path: str) -> None:
    """Write one stage's per-sample controller log, formatting each stretch's cells after t_s once.

    Domain: stage is an int in range(len(trace.scenario.stages)), not a
    bool; anything else is a ValueError naming it, and no file is written.
    """
    _check_stage(trace, stage)
    with rewrite(path, newline="") as fh:
        csv.writer(fh).writerow(_SAMPLE_COLUMNS)
        _write_stretches(fh, trace.sample_runs[stage])
