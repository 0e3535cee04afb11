"""Acquisitions, controller decisions, trace records and trace.csv match the from-scratch oracle exactly.

The engine pushes the source lines through the stages once per line
state and reads its ADC acquisitions, its trace and its metrics from
that one result; it reads the ADC once per line state and attenuator
setting, and on_sample estimates each code triple once per run. A sample
that repeats a fixed point of on_sample is logged as a copy of the one
before it, with no acquisition and no decision. The engine stores the
dt grid as runs of points that share their line powers and stage
snapshots, and expands Trace.records from the runs; trace_to_csv formats
each run's row tail once. tests/trace_reference.py recomputes every
acquisition, every controller decision, every record and every cell.
Records and decisions are compared through repr(), which gives each
float's shortest exact form, so equal reprs mean bit-equal values with
NaN equal to NaN.
"""

from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import trace_reference
from swsense.controller import ControllerConfig
from swsense.core import Tone
from swsense.engine import Scenario, StageSpec, _Runner, load_scenario, trace_to_csv
from swsense.filters import NotchModel
from swsense.readout import AdcParams, ChainConfig

SCENARIOS = ("cascade_6_12", "limit_cycle_coupler", "limit_cycle_tap", "pulse_response")
SEEDS = (0, 1, 7, 11, 123)
DT = 25e-9


def scenario(name):
    return load_scenario(str(resources.files("swsense").joinpath(f"data/scenarios/{name}.json")))


def assert_trace_parity(sc, tmp_path):
    runner = _Runner(sc, None)
    trace = runner.run(collect_trace=True)
    for k, samples in enumerate(trace.samples):
        for s in samples:
            codes = trace_reference.acquire(runner, k, s["t_s"])
            assert (s["code_oc"], s["code_l1"], s["code_l2"], s["att_db"]) == (
                codes.code_oc,
                codes.code_l1,
                codes.code_l2,
                codes.att_db,
            ), f"stage {k} sample at {s['t_s']!r}"
        log, actions = trace_reference.decide(runner, k)
        got = [(s["mode"], s["f_est_hz"], s["p_est_dbm"], s["action"]) for s in samples]
        assert [repr(x) for x in got] == [repr(x) for x in log], f"stage {k}"
        applied = [(a.kind, a.decided_s, a.effective_at_s, a.freq_hz, a.att_db) for a in trace.actions if a.stage == k]
        assert applied == actions, f"stage {k}"
    runs = trace.runs
    assert runs[0].start == 0
    assert runs[-1].stop == round(sc.duration_s / sc.dt_s)
    assert all(a.stop == b.start for a, b in zip(runs, runs[1:]))
    assert all(r.start < r.stop for r in runs)
    records = trace.records
    assert records is trace.records
    expanded = [run for run in runs for _ in range(run.start, run.stop)]
    assert len(records) == len(expanded)
    for i, (r, run) in enumerate(zip(records, expanded)):
        assert r.t_s == i * sc.dt_s
        assert r.in_dbm is run.in_dbm and r.out_dbm is run.out_dbm and r.stages is run.stages

    expected = trace_reference.build_records(runner)
    assert len(trace.records) == len(expected)
    for got, want in zip(trace.records, expected):
        assert repr(got) == repr(want)
    assert trace.metrics.max_output_dbm == trace_reference.max_output_dbm(expected)

    new, old = tmp_path / "trace.csv", tmp_path / "trace_reference.csv"
    trace_to_csv(trace, str(new))
    trace_reference.trace_to_csv(trace, str(old))
    assert new.read_bytes() == old.read_bytes()
    return trace


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenarios_match_reference(tmp_path, name, seed):
    assert_trace_parity(replace(scenario(name), seed=seed), tmp_path)


@pytest.mark.parametrize("rates", [(4e6, 7e6), (7e6, 5e6)])
def test_out_of_step_stages_match_reference(tmp_path, rates):
    # At 7 MS/s a sample comes sooner than one 200 ns controller clock, so a
    # pending mode outlives the sample after the one that set it.
    sc = scenario("cascade_6_12")
    stages = tuple(
        replace(st, chain=replace(st.chain, adc=AdcParams(sample_rate=rate))) for st, rate in zip(sc.stages, rates)
    )
    assert_trace_parity(replace(sc, stages=stages), tmp_path)


def test_records_of_one_state_share_tuples(tmp_path):
    trace = assert_trace_parity(scenario("pulse_response"), tmp_path)
    records = trace.records
    assert len({id(r.in_dbm) for r in records}) < len(records) / 10
    assert len({id(r.stages) for r in records}) < len(records) / 4


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
