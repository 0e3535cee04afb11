"""Acquisitions, controller decisions, trace records and the CSV files match the from-scratch oracle exactly.

The engine pushes the source lines through the stages once per line
state and reads its ADC acquisitions, its trace and its metrics from
that one result. A sample that repeats a fixed point of on_sample only
adds its t_s to its stage's last stretch of equal rows, with no
acquisition and no decision, and Trace.samples expands the stretches
into one row per sample. The engine stores the dt grid as maximal runs
of points that share their line powers and stage snapshots, reading only
the first dt point at or after each change point, and expands
Trace.records from the runs; trace_to_csv formats each run's row tail
once and samples_to_csv each stretch's tail once.
tests/trace_reference.py recomputes every acquisition, every controller
decision, every record and every cell. Sample rows and records are
compared through repr(), which gives each float's shortest exact form,
so equal reprs mean bit-equal values with NaN equal to NaN.
"""

import math
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import swsense.engine
import trace_reference
from swsense.codec import save
from swsense.controller import ControllerConfig
from swsense.core import Tone
from swsense.engine import (
    _SAMPLE_COLUMNS,
    _SILENT_DBM,
    Scenario,
    StageSpec,
    _first_point,
    _Runner,
    load_scenario,
    run,
    samples_to_csv,
    trace_to_csv,
)
from swsense.filters import NotchModel
from swsense.readout import AdcParams, ChainConfig, chain_readout_lines

SCENARIOS = ("cascade_6_12", "limit_cycle_coupler", "limit_cycle_tap", "pulse_response")
SEEDS = (0, 1, 7, 11, 123)
DT = 25e-9


def scenario(name):
    return load_scenario(str(resources.files("swsense").joinpath(f"data/scenarios/{name}.json")))


def assert_trace_parity(sc, tmp_path):
    runner = _Runner(sc, None)
    trace = runner.run(collect_trace=True)
    for k, (stretches, samples) in enumerate(zip(trace.sample_runs, trace.samples, strict=True)):
        # Stretches are maximal: each holds ascending times, and adjacent stretches' values differ.
        assert all(times and all(a < b for a, b in zip(times, times[1:])) for times, _ in stretches)
        assert all(a[1] != b[1] for a, b in zip(stretches, stretches[1:])), f"stage {k}"
        # The expansion equals the rows of freshly acquired codes and replayed decisions.
        log, actions = trace_reference.decide(runner, k, samples)
        replayed = []
        for s, (mode, f_est_hz, p_est_dbm, action) in zip(samples, log, strict=True):
            c = trace_reference.acquire(runner, k, s["t_s"])
            values = (s["t_s"], c.code_oc, c.code_l1, c.code_l2, c.att_db, f_est_hz, p_est_dbm, mode, action)
            replayed.append(dict(zip(_SAMPLE_COLUMNS, values)))
        assert [repr(s) for s in samples] == [repr(r) for r in replayed], f"stage {k}"
        applied = [(a.kind, a.decided_s, a.effective_at_s, a.freq_hz, a.att_db) for a in trace.actions if a.stage == k]
        assert applied == actions, f"stage {k}"
    runs = trace.runs
    assert runs[0].start == 0
    assert runs[-1].stop == round(sc.duration_s / sc.dt_s)
    assert all(a.stop == b.start for a, b in zip(runs, runs[1:]))
    assert all(r.start < r.stop for r in runs)
    # Runs are maximal: adjacent runs differ in their powers or in a stage snapshot.
    heads = [repr((r.in_dbm, r.out_dbm, r.stages)) for r in runs]
    assert all(a != b for a, b in zip(heads, heads[1:]))
    records = trace.records
    assert records is trace.records
    expanded = [run for run in runs for _ in range(run.start, run.stop)]
    assert len(records) == len(expanded)
    for i, (r, run) in enumerate(zip(records, expanded)):
        assert r.t_s == i * sc.dt_s
        assert r.in_dbm is run.in_dbm and r.out_dbm is run.out_dbm and r.stages is run.stages

    expected = trace_reference.build_records(runner, trace.samples)
    assert len(trace.records) == len(expected)
    for got, want in zip(trace.records, expected):
        assert repr(got) == repr(want)
    assert trace.metrics.max_output_dbm == trace_reference.max_output_dbm(expected)

    new, old = tmp_path / "trace.csv", tmp_path / "trace_reference.csv"
    trace_to_csv(trace, str(new))
    trace_reference.trace_to_csv(trace, str(old))
    assert new.read_bytes() == old.read_bytes()
    for k in range(len(sc.stages)):
        new, old = tmp_path / f"samples_stage{k}.csv", tmp_path / f"samples_stage{k}_reference.csv"
        samples_to_csv(trace, k, str(new))
        trace_reference.samples_to_csv(trace, k, str(old))
        assert new.read_bytes() == old.read_bytes(), f"stage {k}"
    return trace


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenarios_match_reference(tmp_path, name, seed):
    assert_trace_parity(replace(scenario(name), seed=seed), tmp_path)


@pytest.mark.parametrize("name", SCENARIOS)
def test_warm_scenarios_match_reference(tmp_path, drop_kept_scenario, name):
    # Seeds 1 and 7 run with the line states and codes that seed 0 left kept.
    run(replace(scenario(name), seed=0), collect_trace=False)
    kept = swsense.engine._KEPT_SCENARIO[1]
    assert kept
    for seed in (1, 7):
        assert_trace_parity(replace(scenario(name), seed=seed), tmp_path)
        assert swsense.engine._KEPT_SCENARIO[1] is kept


def test_a_changed_notch_misses_the_kept_scenario(tmp_path, drop_kept_scenario):
    # Only depth_db differs, so every line state recurs, but with other powers behind an engaged notch.
    sc = scenario("pulse_response")
    run(sc, collect_trace=False)
    kept = swsense.engine._KEPT_SCENARIO[1]
    notch = replace(sc.stages[0].notch, depth_db=sc.stages[0].notch.depth_db + 10.0)
    assert_trace_parity(replace(sc, stages=(replace(sc.stages[0], notch=notch),)), tmp_path)
    assert swsense.engine._KEPT_SCENARIO[1] is not kept


def test_equal_scenarios_built_apart_write_the_same_artifacts(tmp_path, drop_kept_scenario):
    # pulse_response.json, and the same scenario built in Python with int-valued fields.
    loaded = scenario("pulse_response")
    built = Scenario(
        duration_s=2e-5,
        sources=(Tone(freq_hz=8_000_000_000, power_dbm=2, t_on_s=2e-6, t_off_s=1.43e-5),),
        stages=(
            StageSpec(
                controller=ControllerConfig(threshold_dbm=0),
                notch=NotchModel(depth_db=30, bw_3db_hz=100_000_000, tuning_time_s=5e-8, reflective=False),
            ),
        ),
        seed=7,
    )
    assert built == loaded

    def artifacts(sc, out):
        out.mkdir()
        trace = run(sc)
        trace_to_csv(trace, str(out / "trace.csv"))
        samples_to_csv(trace, 0, str(out / "samples_stage0.csv"))
        save(trace.metrics.to_dict(), str(out / "metrics.json"))
        return {f.name: f.read_bytes() for f in out.iterdir()}

    written = []
    for i, order in enumerate(((loaded, built), (built, loaded))):
        drop_kept_scenario()
        first = artifacts(order[0], tmp_path / f"{i}_cold")
        kept = swsense.engine._KEPT_SCENARIO[1]
        second = artifacts(order[1], tmp_path / f"{i}_warm")
        assert swsense.engine._KEPT_SCENARIO[1] is kept
        written += [first, second]
    assert len(written[0]) == 3
    assert all(w == written[0] for w in written)


def out_of_step(rates, **changes):
    """cascade_6_12 with its two stages sampling at the given rates."""
    sc = scenario("cascade_6_12")
    stages = tuple(
        replace(st, chain=replace(st.chain, adc=AdcParams(sample_rate=rate))) for st, rate in zip(sc.stages, rates)
    )
    return replace(sc, stages=stages, **changes)


@pytest.mark.parametrize("rates", [(4e6, 7e6), (7e6, 5e6)])
def test_out_of_step_stages_match_reference(tmp_path, rates):
    # At 7 MS/s a sample comes sooner than one 200 ns controller clock, so a
    # pending mode outlives the sample after the one that set it.
    assert_trace_parity(out_of_step(rates), tmp_path)


def test_a_tune_ends_the_span_another_stage_reads(tmp_path, monkeypatch):
    # The engine reuses the lines of its last lookup while a conversion lies
    # in the span of line events around it. Here stage 0's tune lands inside
    # that span, and stage 1's next conversion lies past the tune but inside
    # the span: the lines the span held would read other codes there. Stage
    # 0's notch tunes at once, so it stops stage 1's line from its tune on.
    sc = out_of_step((7e6, 5e6), seed=0)
    first_stage = replace(sc.stages[0], notch=replace(sc.stages[0].notch, tuning_time_s=0.0))
    sc = replace(sc, stages=(first_stage, sc.stages[1]))
    ends = []  # (x, span_hi, span_lines) of each line event inserted inside the span
    add = _Runner._add_line_event

    def recorded(self, x):
        if x < self.span_hi:
            ends.append((x, self.span_hi, self.span_lines))
        add(self, x)

    monkeypatch.setattr(_Runner, "_add_line_event", recorded)
    trace = assert_trace_parity(sc, tmp_path)
    tunes = {a.effective_at_s for a in trace.actions if a.stage == 0 and a.kind == "tune" and a.ok}
    chain, period = sc.stages[1].chain, sc.stages[1].chain.adc.sample_period
    stale = []
    for x, hi, lines in ends:
        first = next((s for s in trace.samples[1] if x <= s["t_s"] - period), None)
        if x in tunes and first is not None and first["t_s"] - period < hi:
            codes = chain_readout_lines(lines.pairs[1], chain, first["att_db"], first["t_s"], lines.ratios[1])
            if codes[1:4] != (first["code_oc"], first["code_l1"], first["code_l2"]):
                stale.append(x)
    assert stale


def test_records_of_one_state_share_tuples(tmp_path):
    trace = assert_trace_parity(scenario("pulse_response"), tmp_path)
    records = trace.records
    assert len({id(r.in_dbm) for r in records}) < len(records) / 10
    assert len({id(r.stages) for r in records}) < len(records) / 4


@settings(max_examples=300, deadline=None)
@given(
    dt=st.sampled_from((DT, 1e-9, 0.1, 1.0 / 3.0, 7e-12)),
    i=st.integers(0, 10**7),
    side=st.sampled_from((-1, 0, 1)),
)
def test_first_point_is_the_first_point_at_or_after_a_time(dt, i, side):
    c = i * dt if side == 0 else math.nextafter(i * dt, side * math.inf)
    # The answer is i - 1, i or i + 1; i - 2 lies before c.
    assert _first_point(c, dt) == min(j for j in range(max(0, i - 2), i + 3) if c <= j * dt)


# Per source, the dt points of its turn-on and turn-off. For the turn-ons,
# ceil(i * DT / DT) is i + 1; for the turn-offs, the float one ulp above
# i * DT, divided by DT, rounds up to i rather than i + 1.
TIE_POINTS = ((44, 134), (81, 148))


@pytest.mark.parametrize("side", [-1, 0, 1])
@pytest.mark.parametrize("name", ["pulse_response", "cascade_6_12"])
def test_edges_on_and_beside_dt_points_match_reference(tmp_path, name, side):
    # An edge at i * DT or one ulp before it is first seen at point i, one
    # ulp after it at point i + 1.
    def edge(i):
        return i * DT if side == 0 else math.nextafter(i * DT, side * math.inf)

    base = scenario(name)
    sources = tuple(
        replace(src, t_on_s=edge(on), t_off_s=edge(off)) for src, (on, off) in zip(base.sources, TIE_POINTS)
    )
    trace = assert_trace_parity(replace(base, duration_s=6e-6, sources=sources), tmp_path)
    for si, (on, off) in enumerate(TIE_POINTS[: len(sources)]):
        live = [i for r in trace.runs if r.in_dbm[0][si] != _SILENT_DBM for i in range(r.start, r.stop)]
        assert (live[0], live[-1] + 1) == (on + (side > 0), off + (side > 0))


@pytest.mark.parametrize(
    "edges",
    [{"t_off_s": 1e18}, {"t_off_s": 1e300}, {"t_off_s": 1e308}, {"t_on_s": 1e300, "t_off_s": math.inf}, {"t_on_s": -1e300}],
)
def test_far_source_edges_match_reference(tmp_path, edges):
    # Far from the grid, t / DT is past float's integer precision or not
    # finite; such an edge lies before point 0 or after the last point.
    base = scenario("pulse_response")
    sc = replace(base, sources=(replace(base.sources[0], **edges),))
    trace = assert_trace_parity(sc, tmp_path)
    assert trace.runs[-1].stop == len(trace.records) == 800


def test_run_shorter_than_half_a_dt_step_has_no_runs():
    sc = Scenario(duration_s=DT / 4, sources=(Tone(freq_hz=8e9, power_dbm=2.0),), stages=(StageSpec(),))
    trace = _Runner(sc, None).run(collect_trace=True)
    assert (trace.runs, trace.records, trace.metrics.max_output_dbm) == ([], [], None)


def test_long_steady_pulse_is_few_runs(tmp_path):
    # The acceptance-5 pulse held on from 1 us to 0.7 ms of a 1 ms run:
    # 40,000 dt points and 5,000 samples, almost all of them steady.
    sc = Scenario(
        duration_s=1e-3,
        sources=(Tone(freq_hz=8e9, power_dbm=2.0, t_on_s=1e-6, t_off_s=0.7e-3),),
        stages=(StageSpec(notch=NotchModel(reflective=False)),),
    )
    trace = assert_trace_parity(sc, tmp_path)
    assert len(trace.samples[0]) == 5000
    assert len(trace.runs) == 18


@st.composite
def scenarios(draw):
    sources = []
    for _ in range(draw(st.integers(1, 2))):
        # Edges fall between dt points; a turn-off is optional.
        t_on = draw(st.floats(0.0, 1.5e-6))
        t_off = draw(st.one_of(st.none(), st.floats(0.2e-6, 2.5e-6).map(lambda d: t_on + d)))
        comb = draw(st.booleans())
        sources.append(
            Tone(
                freq_hz=draw(st.floats(2e9, 13e9)),
                power_dbm=draw(st.floats(-6.0, 12.0)),
                t_on_s=t_on,
                t_off_s=float("inf") if t_off is None else t_off,
                occupied_bw_hz=12e6 if comb else 0.0,
            )
        )
    stages = []
    for _ in range(draw(st.integers(1, 2))):
        notch = NotchModel(
            kind=draw(st.sampled_from(("evanescent_pin", "yig", "ideal"))),
            bw_3db_hz=draw(st.sampled_from((50e6, 500e6))),
            # Shorter than, equal to and longer than one dt step.
            tuning_time_s=draw(st.sampled_from((5e-9, DT, 37e-9, 130e-9, 600e-9))),
            reflective=draw(st.booleans()),
        )
        # Stages at different sample rates tick out of step, so one stage's
        # action can land inside another stage's run of repeated samples.
        chain = ChainConfig(
            coupling_kind=draw(st.sampled_from(("tap", "coupler"))),
            adc=AdcParams(sample_rate=draw(st.sampled_from((4e6, 5e6, 7e6)))),
        )
        stages.append(
            StageSpec(
                chain=chain,
                controller=ControllerConfig(threshold_dbm=draw(st.sampled_from((-16.0, 0.0, 6.0)))),
                notch=notch,
                electrical_delay_s=draw(st.sampled_from((0.0, 1.0 / (4.0 * 6e9)))),
            )
        )
    return Scenario(
        duration_s=draw(st.floats(1e-6, 4e-6)),
        sources=tuple(sources),
        stages=tuple(stages),
        seed=draw(st.integers(0, 2**31)),
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sc=scenarios())
def test_random_scenarios_match_reference(tmp_path, sc):
    assert_trace_parity(sc, tmp_path)
