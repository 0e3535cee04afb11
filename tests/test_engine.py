"""Closed-loop engine: timing, metrics, determinism, artifacts."""

import csv
import math
from dataclasses import replace
from importlib import resources

import pytest

import swsense.controller
import swsense.engine
from swsense.codec import to_json
from swsense.controller import ACT_SET_ATT, ControllerConfig, ControllerState, on_sample
from swsense.core import Tone
from swsense.errors import OutOfBandError
from swsense.engine import (
    Scenario,
    StageSpec,
    Trace,
    _at,
    _Runner,
    clear_calibration_cache,
    detect_limit_cycle,
    get_calibration,
    load_scenario,
    measure_response_time,
    run,
    samples_to_csv,
    save_scenario,
    scenario_from_dict,
    trace_to_csv,
    _validate,
)
from swsense.estimator import estimate
from swsense.filters import NotchModel
from swsense.readout import ChainConfig, TapCodes

import trace_reference

def pulse_scenario():
    return Scenario(
        duration_s=2e-5,
        sources=(Tone(freq_hz=8e9, power_dbm=2.0, t_on_s=2e-6, t_off_s=1.43e-5),),
        stages=(StageSpec(notch=NotchModel(reflective=False)),),
        seed=7,
    )


def acceptance_pulse(seed):
    """The pulse of acceptance 5: 8 GHz at +2 dBm, on from 1 to 4.1 us of a 6 us run."""
    return Scenario(
        duration_s=6e-6,
        sources=(Tone(freq_hz=8e9, power_dbm=2.0, t_on_s=1e-6, t_off_s=4.1e-6),),
        stages=(StageSpec(notch=NotchModel(reflective=False)),),
        seed=seed,
    )


def tap_cycle_scenario():
    return Scenario(
        duration_s=1.5e-5,
        sources=(Tone(freq_hz=6e9, power_dbm=3.0),),
        stages=(
            StageSpec(
                notch=NotchModel(reflective=True),
                electrical_delay_s=1.0 / (4.0 * 6e9),
            ),
        ),
        seed=3,
    )


def coupler_scenario():
    return Scenario(
        duration_s=1.5e-5,
        sources=(Tone(freq_hz=6e9, power_dbm=10.0),),
        stages=(
            StageSpec(
                chain=ChainConfig(coupling_kind="coupler"),
                notch=NotchModel(reflective=True),
                electrical_delay_s=1.0 / (4.0 * 6e9),
            ),
        ),
        seed=3,
    )


def cascade_scenario():
    ctrl = ControllerConfig(threshold_dbm=-16.0)
    stage = StageSpec(
        controller=ctrl,
        notch=NotchModel.yig(bw_3db_hz=500e6, reflective=False, tuning_time_s=2e-7),
    )
    return Scenario(
        duration_s=1.2e-5,
        sources=(
            Tone(freq_hz=6e9, power_dbm=2.0, t_on_s=1e-6),
            Tone(freq_hz=12e9, power_dbm=-14.0, t_on_s=3e-6),
        ),
        stages=(stage, stage),
        seed=11,
    )


@pytest.fixture(scope="module")
def pulse_trace():
    return run(pulse_scenario())


@pytest.fixture(scope="module")
def tap_trace():
    return run(tap_cycle_scenario())


@pytest.fixture(scope="module")
def coupler_trace():
    return run(coupler_scenario())


@pytest.fixture(scope="module")
def cascade_trace():
    return run(cascade_scenario())


class TestValidation:
    def test_positive_duration(self):
        sc = Scenario(duration_s=0.0, sources=(), stages=(StageSpec(),))
        with pytest.raises(ValueError):
            run(sc)
        # Either would never end run()'s sample loop, so check the validation alone.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^duration_s and dt_s must be positive and finite$"):
                _validate(replace(sc, duration_s=bad), [])

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: StageSpec(electrical_delay_s=math.nan), "^electrical_delay_s must be >= 0 and finite, got nan$"),
            (lambda: StageSpec(electrical_delay_s=math.inf), "^electrical_delay_s must be >= 0 and finite, got inf$"),
            (lambda: StageSpec(electrical_delay_s=-1e-9), "^electrical_delay_s must be >= 0 and finite, got -1e-09$"),
            (lambda: StageSpec(electrical_delay_s=True), "^electrical_delay_s must be a number, not a bool; got True$"),
            (lambda: Scenario(duration_s=True), "^duration_s must be a number, not a bool; got True$"),
            (lambda: Scenario(duration_s=1e-6, seed=True), "^seed must be a number, not a bool; got True$"),
            (lambda: Scenario(duration_s=1e-6, seed=-1), "^seed must be an int >= 0, got -1$"),
        ],
        ids=["delay_nan", "delay_inf", "delay_negative", "delay_bool", "duration_bool", "seed_bool", "seed_negative"],
    )
    def test_stage_and_scenario_fields_outside_their_domain(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_needs_a_stage(self):
        with pytest.raises(ValueError):
            run(Scenario(duration_s=1e-5, sources=(), stages=()))

    def test_dt_must_resolve_sampling(self):
        sc = Scenario(
            duration_s=1e-5,
            sources=(Tone(freq_hz=6e9, power_dbm=0.0),),
            stages=(StageSpec(),),
            dt_s=100e-9,
        )
        with pytest.raises(ValueError):
            run(sc)

    def test_coupler_band_covers_sources(self):
        sc = Scenario(
            duration_s=1e-5,
            sources=(Tone(freq_hz=15e9, power_dbm=0.0),),
            stages=(StageSpec(chain=ChainConfig(coupling_kind="coupler")),),
        )
        with pytest.raises(
            OutOfBandError, match=r"^stage 0: source line 15\.000 GHz outside coupler band \[1\.000, 14\.000\] GHz$"
        ):
            run(sc)

    def test_calibrations_match_the_stages(self, calibration):
        coupler = StageSpec(chain=ChainConfig(coupling_kind="coupler"), notch=NotchModel(reflective=False))
        sc = Scenario(duration_s=2e-6, sources=(Tone(freq_hz=8e9, power_dbm=2.0),), stages=(coupler,))
        # A table built for another chain reads this stage's codes as plausible but wrong powers.
        with pytest.raises(ValueError, match="built for that stage's chain"):
            run(sc, calibrations=[calibration])
        two = replace(sc, stages=(StageSpec(), StageSpec()))
        for cals in ([], [calibration], [calibration] * 3):
            with pytest.raises(ValueError, match="one table per stage"):
                run(two, calibrations=cals)
        assert len(run(two, collect_trace=False, calibrations=[calibration] * 2).samples) == 2
        assert len(run(two, collect_trace=False, calibrations=(calibration, calibration)).samples) == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda cal: [object()],
            lambda cal: [None],
            lambda cal: [cal.cfg],
            lambda cal: (c for c in [cal]),
            lambda cal: {0: cal},
            lambda cal: "cal",
            lambda cal: cal,
        ],
        ids=["object", "none", "chain", "generator", "dict", "str", "bare_table"],
    )
    def test_calibrations_must_be_a_list_of_tables(self, calibration, make):
        sc = Scenario(duration_s=2e-6, sources=(Tone(freq_hz=8e9, power_dbm=2.0),), stages=(StageSpec(),))
        with pytest.raises(ValueError, match="list or tuple holding one table per stage"):
            run(sc, calibrations=make(calibration))

    def test_stub_band_covers_sources(self):
        # A 12 MHz comb whose top line sits 1 MHz above tap l1's f_max.
        comb = Tone(freq_hz=15.995e9, power_dbm=0.0, occupied_bw_hz=12e6, n_subtones=3)
        sc = Scenario(duration_s=1e-6, sources=(comb,), stages=(StageSpec(), StageSpec()))
        with pytest.raises(
            OutOfBandError, match=r"^stage 0: source line 16\.001 GHz above the stub band \(tap l1 resolves up to 16\.000 GHz\)$"
        ):
            run(sc)
        at_f_max = replace(sc, sources=(Tone(freq_hz=16e9, power_dbm=0.0),))
        assert len(run(at_f_max, collect_trace=False).samples[1]) == 5


class TestPulseResponse:
    def test_engage_latency(self, pulse_trace):
        # seed 7 places the tick phase at 125.019 ns past the edge grid
        rt = measure_response_time(pulse_trace, "rise")
        assert rt == pytest.approx(5.250190933209325e-07, abs=1e-12)
        assert pulse_trace.metrics.response_time_engage_s == pytest.approx(rt)

    def test_release_latency(self, pulse_trace):
        rt = measure_response_time(pulse_trace, "fall")
        assert rt == pytest.approx(4.250190933209186e-07, abs=1e-12)
        assert pulse_trace.metrics.response_time_release_s == pytest.approx(rt)

    def test_latency_within_pipeline_bounds(self, pulse_trace):
        # one ADC period to convert plus up to one period of phase plus one
        # controller clock: the effect lands 400..600 ns after the edge
        for edge in ("rise", "fall"):
            rt = measure_response_time(pulse_trace, edge)
            assert 400e-9 <= rt <= 600e-9

    def test_suppression_while_engaged(self, pulse_trace):
        mid = [r for r in pulse_trace.records if 6e-6 <= r.t_s <= 12e-6]
        assert mid
        for r in mid:
            assert r.stages[0].filter_engaged
            assert r.in_dbm[0][0] - r.out_dbm[0][0] > 25.0

    def test_filter_released_after_pulse(self, pulse_trace):
        assert not pulse_trace.filter_hist[0][-1][1].engaged
        assert not pulse_trace.records[-1].stages[0].filter_engaged

    def test_no_cycle(self, pulse_trace):
        assert detect_limit_cycle(pulse_trace) == (False, None)

    def test_causality(self, pulse_trace):
        for a in pulse_trace.actions:
            assert a.effective_at_s > a.decided_s

    def test_record_grid(self, pulse_trace):
        sc = pulse_trace.scenario
        assert len(pulse_trace.records) == int(round(sc.duration_s / sc.dt_s)) == 800
        ts = [r.t_s for r in pulse_trace.records]
        assert ts[0] == 0.0
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_sample_cadence(self, pulse_trace):
        ts = [s["t_s"] for s in pulse_trace.samples[0]]
        assert 0.0 <= ts[0] < 200e-9
        for a, b in zip(ts, ts[1:]):
            assert b - a == pytest.approx(200e-9, abs=1e-15)


def counted_readouts(monkeypatch):
    """Record the engine's chain_readout_lines calls; returns the (t_s, att_db) of each, in call order."""
    calls = []
    readout = swsense.engine.chain_readout_lines

    def counted(lines, cfg, att_db, t_s, forward_ratios):
        calls.append((t_s, att_db))
        return readout(lines, cfg, att_db, t_s, forward_ratios)

    monkeypatch.setattr(swsense.engine, "chain_readout_lines", counted)
    return calls


def conversion_settings(runner, times):
    """(t_s, stage 0's attenuator setting at that sample's conversion time) for each delivery time."""
    period = runner.sc.stages[0].chain.adc.sample_period
    return [(t, _at(runner.att_hist[0], t - period)) for t in times]


class TestWorkPerRun:
    """A run reads the ADC once per sample it decides, and estimates each such sample at most once.

    A repeat is neither read nor decided. Every other sample is read by
    one chain_readout_lines call, stamped with its delivery time and the
    attenuator setting at its conversion time.
    """

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_acceptance_pulse(self, calibration, monkeypatch, seed):
        readouts, estimates, states = counted_readouts(monkeypatch), [], []
        line_state = _Runner._line_state
        monkeypatch.setattr(_Runner, "_line_state", lambda runner, t: states.append(t) or line_state(runner, t))

        def counted_estimate(codes, cal, switch_freq_hz):
            estimates.append(codes.t_s)  # a call that raises is counted too
            return estimate(codes, cal, switch_freq_hz)

        monkeypatch.setattr(swsense.controller, "estimate", counted_estimate)
        runner = _Runner(acceptance_pulse(seed), [calibration])
        trace = runner.run(collect_trace=False)
        calls = estimates.copy()  # non_repeats below calls estimate too
        samples = trace.samples[0]
        decided = non_repeats(runner, trace, 0)
        assert readouts == conversion_settings(runner, decided)
        assert len(readouts) == 16 < len(samples) == 30
        # The line state is looked up once per span of line events that the
        # readouts' conversions fall in, not once per readout, and once for
        # the metrics.
        assert len(states) == 7

        # Each sample that is not a repeat is estimated once, unless it is
        # frozen (the one after an attenuator step) or at the detector floor.
        estimated, frozen = [], False
        for s in samples:
            if s["t_s"] in decided and not frozen and s["code_oc"] > calibration.cfg.floor_code:
                estimated.append(s["t_s"])
            frozen = ACT_SET_ATT in s["action"].split(";")
        assert calls == estimated
        assert len(calls) == 3

    def test_limit_cycle_revisits_its_line_states(self, monkeypatch, tmp_path):
        # Each engage and release of the notch returns to a line state seen
        # before, so the cycle reuses the lines pushed through there. A
        # limit cycle has no fixed point, so most of its samples are read.
        readouts = counted_readouts(monkeypatch)
        sc = load_scenario(str(resources.files("swsense").joinpath("data/scenarios/limit_cycle_tap.json")))
        assert sc.seed == 3
        runner = _Runner(sc, None)
        trace = runner.run(collect_trace=True)
        assert detect_limit_cycle(trace)[0]
        assert len(runner.line_cache) == 5
        assert readouts == conversion_settings(runner, non_repeats(runner, trace, 0))
        assert len(readouts) == 75

        trace_to_csv(trace, str(tmp_path / "trace.csv"))
        trace_reference.trace_to_csv(trace, str(tmp_path / "trace_reference.csv"))
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "trace_reference.csv").read_bytes()
        samples_to_csv(trace, 0, str(tmp_path / "samples.csv"))
        trace_reference.samples_to_csv(trace, 0, str(tmp_path / "samples_reference.csv"))
        assert (tmp_path / "samples.csv").read_bytes() == (tmp_path / "samples_reference.csv").read_bytes()


def non_repeats(runner, trace, k):
    """Delivery times of stage k's samples that are not repeats, found by replaying its log through on_sample.

    A sample is a repeat when the one before it was a fixed point of
    on_sample and no source edge, action or end of a tuning transition
    falls between their conversion times.
    """
    sc = runner.sc
    events = [x for src in sc.sources for x in (src.t_on_s, src.t_off_s)]
    events += [a.effective_at_s for a in trace.actions]
    events += [
        a.effective_at_s + sc.stages[a.stage].notch.tuning_time_s for a in trace.actions if a.kind == "tune" and a.ok
    ]
    period = sc.stages[k].chain.adc.sample_period
    state, fixed_tau, times = ControllerState(), None, []
    for s in trace.samples[k]:
        tau = s["t_s"] - period
        if fixed_tau is not None and not any(fixed_tau < e <= tau for e in events):
            fixed_tau = tau
            continue
        times.append(s["t_s"])
        codes = TapCodes(s["t_s"], s["code_oc"], s["code_l1"], s["code_l2"], s["att_db"])
        new, acts = on_sample(codes, state, sc.stages[k].controller, runner.cals[k])
        fixed = not acts and new.diagnostic is None and state.pending_at_s is None and new == state
        fixed_tau = tau if fixed else None
        state = new
    return times


def counted_on_sample(monkeypatch):
    """Count the engine's on_sample calls; returns the delivery times it is called with, in call order."""
    calls = []

    def counted(codes, *args):
        calls.append(codes.t_s)
        return on_sample(codes, *args)

    monkeypatch.setattr(swsense.engine, "on_sample", counted)
    return calls


class TestRepeatedSamples:
    """A sample that repeats a fixed point is logged as the previous row at its own t_s, with no acquisition or decision."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_on_sample_once_per_non_repeat(self, calibration, monkeypatch, seed):
        calls = counted_on_sample(monkeypatch)
        runner = _Runner(acceptance_pulse(seed), [calibration])
        trace = runner.run(collect_trace=False)
        assert calls == non_repeats(runner, trace, 0)
        assert (len(calls), len(trace.samples[0])) == (16, 30)

    def test_cascade_calls_once_per_non_repeat(self, monkeypatch):
        calls = counted_on_sample(monkeypatch)
        runner = _Runner(cascade_scenario(), None)
        trace = runner.run(collect_trace=False)
        want = non_repeats(runner, trace, 0) + non_repeats(runner, trace, 1)
        assert sorted(calls) == sorted(want)
        assert len(calls) < sum(map(len, trace.samples))

    def test_repeated_row_is_a_copy(self, calibration, monkeypatch):
        calls = counted_on_sample(monkeypatch)
        samples = _Runner(acceptance_pulse(0), [calibration]).run(collect_trace=False).samples[0]
        called = set(calls)
        repeats = [j for j, s in enumerate(samples) if s["t_s"] not in called]
        assert len(repeats) == 14 and 0 not in repeats
        for j in repeats:
            row, prev = samples[j], samples[j - 1]
            assert row is not prev
            assert list(row) == list(prev)
            assert row["t_s"] > prev["t_s"]
            assert repr({**row, "t_s": None}) == repr({**prev, "t_s": None})

    def test_fixed_stretch_with_diagnostic_is_decided_every_sample(self, monkeypatch):
        # +35 dBm walks the attenuator to max_db, and the open-end code then sits at the detector ceiling.
        calls = counted_on_sample(monkeypatch)
        sc = Scenario(
            duration_s=6e-5,
            sources=(Tone(freq_hz=8e9, power_dbm=35.0),),
            stages=(StageSpec(notch=NotchModel(reflective=False)),),
        )
        trace = run(sc, collect_trace=False)
        samples = trace.samples[0]
        top = [s for s in samples if s["att_db"] == sc.stages[0].chain.attenuator.max_db]
        assert len(top) > 100
        assert all((s["code_oc"], s["action"]) == (top[0]["code_oc"], "") for s in top)
        assert len(calls) == len(samples)
        logged = [d for d in trace.metrics.diagnostics if "attenuator at maximum" in d]
        assert logged == [
            f"stage 0 at {s['t_s']:.3e}s: PowerOverrangeError: open-end saturated with attenuator at maximum"
            for s in top
        ]


class TestLimitCycle:
    def test_tap_pickoff_cycles(self, tap_trace):
        cycling, period = detect_limit_cycle(tap_trace)
        assert cycling
        # two controller round trips: detect+engage then starve+release
        assert period == pytest.approx(1000e-9, rel=0.02)
        assert tap_trace.metrics.limit_cycle

    def test_coupler_pickoff_does_not_cycle(self, coupler_trace):
        cycling, period = detect_limit_cycle(coupler_trace)
        assert not cycling
        assert period is None
        assert coupler_trace.metrics.suppression_db[0] > 25.0
        assert coupler_trace.records[-1].stages[0].filter_engaged

    def test_short_trace_rejected(self):
        sc = Scenario(
            duration_s=1.5e-6,
            sources=(Tone(freq_hz=6e9, power_dbm=0.0),),
            stages=(StageSpec(),),
            seed=1,
        )
        trace = run(sc)
        with pytest.raises(ValueError):
            detect_limit_cycle(trace)


class TestCascade:
    def test_both_tones_suppressed(self, cascade_trace):
        m = cascade_trace.metrics
        assert m.final_output_dbm[0] < -16.0
        assert m.final_output_dbm[1] < -16.0

    def test_stage0_locks_the_strong_tone(self, cascade_trace):
        f0 = cascade_trace.filter_hist[0][-1][1]
        assert f0.engaged
        assert f0.f_center_hz == pytest.approx(6e9, abs=250e6)
        f1 = cascade_trace.filter_hist[1][-1][1]
        assert f1.engaged
        assert f1.f_center_hz == pytest.approx(12e9, abs=250e6)

    def test_stage_chaining(self, cascade_trace):
        for r in cascade_trace.records:
            assert r.in_dbm[1] == r.out_dbm[0]

    def test_stages_only_attenuate(self, cascade_trace):
        for r in cascade_trace.records[::7]:
            for k in range(2):
                for si in range(2):
                    assert r.out_dbm[k][si] <= r.in_dbm[k][si] + 1e-9


class TestQuiescent:
    def test_below_threshold_stays_idle(self):
        sc = Scenario(
            duration_s=4e-6,
            sources=(Tone(freq_hz=6e9, power_dbm=-5.0),),
            stages=(StageSpec(),),
            seed=2,
        )
        trace = run(sc)
        assert all(a.kind != "tune" for a in trace.actions)
        assert not trace.filter_hist[0][-1][1].engaged
        assert trace.metrics.response_time_engage_s is None
        # only the pick-off through loss separates input from output
        last = trace.records[-1]
        assert last.in_dbm[0][0] - last.out_dbm[0][0] == pytest.approx(0.769165, abs=1e-4)

    def test_out_of_tuning_range_is_refused(self):
        sc = Scenario(
            duration_s=4e-6,
            sources=(Tone(freq_hz=6e9, power_dbm=2.0),),
            stages=(StageSpec(notch=NotchModel(f_tune_range_hz=(1e9, 4e9))),),
            seed=2,
        )
        trace = run(sc)
        refused = [a for a in trace.actions if a.kind == "tune" and not a.ok]
        assert refused
        assert not trace.filter_hist[0][-1][1].engaged
        assert trace.metrics.diagnostics


class TestDeterminism:
    def test_same_seed_same_trace(self, tmp_path):
        sc = Scenario(
            duration_s=4e-6,
            sources=(Tone(freq_hz=7e9, power_dbm=1.0),),
            stages=(StageSpec(),),
            seed=42,
        )
        a, b = run(sc), run(sc)
        assert a.samples == b.samples
        assert a.metrics.to_dict() == b.metrics.to_dict()
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        trace_to_csv(a, str(pa))
        trace_to_csv(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_moves_sample_phase(self):
        base = Scenario(
            duration_s=4e-6,
            sources=(Tone(freq_hz=7e9, power_dbm=1.0),),
            stages=(StageSpec(),),
            seed=1,
        )
        other = replace(base, seed=2)
        ta, tb = run(base), run(other)
        assert ta.samples[0][0]["t_s"] != tb.samples[0][0]["t_s"]


class TestResponseTimeGuards:
    def test_requires_single_edge(self, tap_trace):
        with pytest.raises(ValueError):
            measure_response_time(tap_trace, "rise")  # CW source: no rise edge

    def test_edge_name_checked(self, pulse_trace):
        with pytest.raises(ValueError):
            measure_response_time(pulse_trace, "sideways")


@pytest.mark.parametrize("stage", [1, -1, True])
def test_stage_outside_the_trace_is_refused(stage, tmp_path):
    sc = load_scenario(str(resources.files("swsense").joinpath("data/scenarios/pulse_response.json")))
    trace = run(sc, collect_trace=False)
    assert len(sc.stages) == 1
    with pytest.raises(ValueError, match=rf"stage {stage!r} is not a stage of this trace"):
        detect_limit_cycle(trace, stage)
    with pytest.raises(ValueError, match=rf"stage {stage!r} is not a stage of this trace"):
        measure_response_time(trace, "rise", stage)
    path = tmp_path / "samples.csv"
    with pytest.raises(ValueError, match=rf"stage {stage!r} is not a stage of this trace"):
        samples_to_csv(trace, stage, str(path))
    assert not path.exists()
    assert measure_response_time(trace, "rise", 0) > 0.0


class TestScenarioJson:
    def test_dict_round_trip(self):
        sc = cascade_scenario()
        assert scenario_from_dict(to_json(sc)) == sc

    def test_file_round_trip_with_open_ended_tone(self, tmp_path):
        sc = tap_cycle_scenario()
        assert math.isinf(sc.sources[0].t_off_s)
        path = tmp_path / "sc.json"
        save_scenario(sc, str(path))
        back = load_scenario(str(path))
        assert back == sc
        assert math.isinf(back.sources[0].t_off_s)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["stages"][0]["notch"].update(q_factor=3), r"stages\[0\]\.notch: unknown key 'q_factor'"),
            (lambda d: d["stages"][1].update(notchh={}), r"stages\[1\]: unknown key 'notchh'"),
            (lambda d: d["sources"][1].update(pwr=3), r"sources\[1\]: unknown key 'pwr'"),
            (lambda d: d["sources"][0].pop("freq_hz"), r"sources\[0\]: missing key 'freq_hz'"),
            (lambda d: d["sources"].append(5.0), r"sources\[2\]: expected an object, got float"),
            (lambda d: d.pop("duration_s"), r"scenario: missing key 'duration_s'"),
            (lambda d: d.update(durationn=1e-5), r"scenario: unknown key 'durationn'"),
        ],
    )
    def test_malformed_entries_name_their_path(self, edit, message):
        d = to_json(cascade_scenario())
        edit(d)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            scenario_from_dict(d)

    def test_notch_tuning_range_list_is_read(self):
        d = to_json(cascade_scenario())
        d["stages"][0]["notch"]["f_tune_range_hz"] = [2e9, 12e9]
        assert scenario_from_dict(d).stages[0].notch.f_tune_range_hz == (2e9, 12e9)

    def test_unknown_controller_key_names_stage(self):
        d = to_json(cascade_scenario())
        d["stages"][1]["controller"]["threshold"] = 1.0
        with pytest.raises(ValueError, match=r"^stages\[1\]\.controller: unknown key 'threshold'$"):
            scenario_from_dict(d)


class TestArtifacts:
    def test_trace_csv_header_and_rows(self, tmp_path, pulse_trace):
        path = tmp_path / "trace.csv"
        trace_to_csv(pulse_trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t_s,s0_in0_dbm,s0_out0_dbm,s0_code_oc,s0_code_l1,s0_code_l2,"
            "s0_att_db,s0_f_est_hz,s0_p_est_dbm,s0_mode,s0_action,"
            "s0_filter_engaged,s0_filter_center_hz"
        )
        assert len(lines) == 1 + len(pulse_trace.records)

    def test_samples_csv_header(self, tmp_path, pulse_trace):
        path = tmp_path / "samples.csv"
        samples_to_csv(pulse_trace, 0, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,code_oc,code_l1,code_l2,att_db,f_est_hz,p_est_dbm,mode,action"
        assert len(lines) == 1 + len(pulse_trace.samples[0])

    def test_csv_writers_leave_rows_and_records_unexpanded(self, tmp_path):
        trace = run(pulse_scenario())
        trace_to_csv(trace, str(tmp_path / "trace.csv"))
        samples_to_csv(trace, 0, str(tmp_path / "samples.csv"))
        assert "samples" not in vars(trace) and "records" not in vars(trace)
        assert trace.samples is trace.samples and "samples" in vars(trace)

    def test_csv_cells_round_trip(self, tmp_path, pulse_trace):
        def same_float(cell, value):
            x = float(cell)
            return x == value or (math.isnan(x) and math.isnan(value))

        path = tmp_path / "samples.csv"
        samples_to_csv(pulse_trace, 0, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(pulse_trace.samples[0])
        for row, s in zip(rows, pulse_trace.samples[0]):
            for col in ("t_s", "att_db", "f_est_hz", "p_est_dbm"):
                assert same_float(row[col], s[col]), (col, row[col], s[col])
            for col in ("code_oc", "code_l1", "code_l2"):
                assert row[col] == str(s[col])
            assert (row["mode"], row["action"]) == (s["mode"], s["action"])

        path = tmp_path / "trace.csv"
        trace_to_csv(pulse_trace, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(pulse_trace.records)
        for row, r in zip(rows, pulse_trace.records):
            s = r.stages[0]
            assert same_float(row["t_s"], r.t_s)
            assert same_float(row["s0_in0_dbm"], r.in_dbm[0][0])
            assert same_float(row["s0_out0_dbm"], r.out_dbm[0][0])
            for col in ("att_db", "f_est_hz", "p_est_dbm", "filter_center_hz"):
                assert same_float(row[f"s0_{col}"], getattr(s, col)), (col, row[f"s0_{col}"])
            for col in ("code_oc", "code_l1", "code_l2"):
                assert row[f"s0_{col}"] == str(getattr(s, col))
            assert (row["s0_mode"], row["s0_action"]) == (s.mode, s.action)
            assert row["s0_filter_engaged"] == ("1" if s.filter_engaged else "0")
        assert {row["s0_filter_engaged"] for row in rows} == {"0", "1"}
        assert any(row["s0_action"] for row in rows)


def test_calibration_cache_reuses_tables(chain, controller):
    a = get_calibration(chain, controller)
    b = get_calibration(chain, controller)
    assert a is b
    clear_calibration_cache()
    c = get_calibration(chain, controller)
    assert c is not a
