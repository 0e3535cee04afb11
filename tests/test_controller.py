"""Controller state machine and gain-control policy."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swsense.controller
from swsense.controller import (
    ACT_RELEASE,
    ACT_SET_ATT,
    ACT_TUNE,
    MODE_ENGAGED,
    MODE_ENGAGING,
    MODE_IDLE,
    MODE_RELEASING,
    Action,
    ControllerConfig,
    ControllerState,
    agc_policy,
    on_sample,
    settle_cw,
)
from swsense.core import SignalDescriptor, Tone, dbm_to_watts
from swsense.errors import OutOfBandError, SwsenseError
from swsense.estimator import (
    _BLOCK_CELLS,
    CONF_CLAMPED,
    CONF_IN_RANGE,
    CONF_SATURATED,
    Estimate,
    build_calibration,
    estimate,
)
from swsense.readout import ChainConfig, TapCodes, chain_readout, chain_readout_lines, detector_floor_code


def codes_at(chain, f_hz, p_dbm, att_db, t_s=1e-6):
    sig = SignalDescriptor((Tone(freq_hz=f_hz, power_dbm=p_dbm),))
    return chain_readout(sig, chain, att_db, t_s=t_s)


def kinds(actions):
    return [a.kind for a in actions]


class TestAgcPolicy:
    def test_steps_up_above_window(self, chain, controller):
        assert agc_policy(3000, 0.0, controller, chain) == 0.25
        assert agc_policy(4095, 10.0, controller, chain) == 10.25

    def test_holds_at_max(self, chain, controller):
        assert agc_policy(4095, 31.75, controller, chain) == 31.75

    def test_steps_down_below_window(self, chain, controller):
        assert agc_policy(2700, 5.0, controller, chain) == 4.75

    def test_never_negative(self, chain, controller):
        assert agc_policy(2700, 0.0, controller, chain) == 0.0

    def test_holds_within_window(self, chain, controller):
        assert agc_policy(2900, 3.0, controller, chain) == 3.0
        assert agc_policy(controller.agc_high_code, 3.0, controller, chain) == 3.0
        assert agc_policy(controller.agc_low_code, 3.0, controller, chain) == 3.0

    def test_floor_reading_freezes_attenuator(self, chain, controller):
        # signal gone: do not bleed attenuation away chasing the noise floor
        assert agc_policy(controller.agc_floor_code, 8.0, controller, chain) == 8.0

    def test_fixed_point_for_all_drive_levels(self, chain, controller):
        powers = np.arange(-20.0, 21.0)
        code, _, _, att = settle_cw(8e9, powers, chain, controller)
        # The settled code is the one read at the settled setting.
        assert code.tolist() == [codes_at(chain, 8e9, p, a).code_oc for p, a in zip(powers, att)]
        assert np.array_equal(agc_policy(code, att, controller, chain), att)
        assert np.all((code <= controller.agc_high_code) | (att == chain.attenuator.max_db))
        assert np.all((code >= controller.agc_low_code) | (att == 0.0))


class TestSettleCw:
    def test_scalars_give_0d_results(self, chain, controller):
        got = settle_cw(8e9, 20.0, chain, controller)
        assert all(isinstance(x, np.ndarray) and x.shape == () for x in got)
        code, att = codes_at(chain, 8e9, 20.0, float(got[3])), float(got[3])
        assert tuple(got) == (code.code_oc, code.code_l1, code.code_l2, att)
        assert att > 0.0 and agc_policy(code.code_oc, att, controller, chain) == att

    def test_start_setting_is_the_callers_and_left_unchanged(self, chain, controller):
        att0 = np.array([0.0, 31.75])
        _, _, _, att = settle_cw(8e9, 10.0, chain, controller, att0)
        assert att0.tolist() == [0.0, 31.75]
        # From below the walk stops at the window's top, from above at its bottom.
        assert att[0] < att[1]

    def test_empty_input(self, chain, controller):
        assert all(x.shape == (0,) for x in settle_cw(np.array([]), 0.0, chain, controller))

    @pytest.mark.parametrize("kind", ["tap", "coupler"])
    @pytest.mark.parametrize(
        "f_hz, p_dbm, att0, error, match",
        [
            (math.nan, 0.0, 0.0, ValueError, "^frequency nan Hz"),
            (-8e9, 0.0, 0.0, ValueError, "^frequency -8000000000.0 Hz"),
            (8e9, -math.inf, 0.0, ValueError, "^power -inf dBm"),
            (8e9, 4000.0, 0.0, ValueError, "^power 4000.0 dBm is too large: its watts overflow a float$"),
            (20e9, 0.0, 0.0, OutOfBandError, "^20.000 GHz above the stub band"),
            (8e9, 0.0, 0.3, ValueError, "^att_db=0.3 is not a multiple"),
        ],
    )
    def test_out_of_domain_input_is_refused(self, kind, f_hz, p_dbm, att0, error, match):
        # The domain is checked before a coupler looks up its coupling.
        cfg = ChainConfig(coupling_kind=kind)
        with pytest.raises(error, match=match):
            settle_cw(f_hz, p_dbm, cfg, ControllerConfig.for_chain(cfg), att0)


class TestSettleWork:
    """settle_cw bisects: a block of a calibration build takes a few reads of its moving cells, not one per step.

    Stepping each moving cell one setting per round would make 81
    chain_codes_cw calls per block of the default builds, and read 133,031
    cells on the tap chain and 115,411 on the coupler chain.
    """

    @pytest.mark.parametrize("kind, cells, read", [("tap", 6191, 30352), ("coupler", 5371, 26332)])
    def test_default_build(self, monkeypatch, kind, cells, read):
        calls = []
        codes_cw = swsense.controller.chain_codes_cw

        def counted(freq_hz, power_dbm, att_db, *rest):
            calls.append(np.broadcast(freq_hz, power_dbm, att_db).size)
            return codes_cw(freq_hz, power_dbm, att_db, *rest)

        monkeypatch.setattr(swsense.controller, "chain_codes_cw", counted)
        cal = build_calibration(ChainConfig(coupling_kind=kind))
        # ControllerConfig.for_chain reads one cell; then the grid is one
        # block, read whole once and then only where cells move.
        assert cal.code_oc.size == cells <= _BLOCK_CELLS
        assert calls[:2] == [1, cells]
        assert len(calls) - 1 <= 11
        assert sum(calls) == read


class TestForChain:
    def test_default_window_matches_frozen_codes(self, chain):
        ctrl = ControllerConfig.for_chain(chain)
        assert ctrl.agc_high_code == 2965
        assert ctrl.agc_low_code == 2815
        assert ctrl.agc_floor_code == detector_floor_code(chain) == 757

    def test_timing_defaults(self, controller):
        assert controller.clock_period == pytest.approx(200e-9)
        assert controller.retune_deadband_hz == pytest.approx(400e6)


class TestConfigDomain:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(clock_period=-2e-7), "clock_period"),
            (dict(clock_period=0.0), "clock_period"),
            (dict(clock_period=math.inf), "clock_period"),
            (dict(clock_period=math.nan), "clock_period"),
            (dict(retune_deadband_hz=-1.0), "retune_deadband_hz"),
            (dict(retune_deadband_hz=math.nan), "retune_deadband_hz"),
            (dict(switch_freq_hz=0.0), "switch_freq_hz"),
            (dict(switch_freq_hz=-5e9), "switch_freq_hz"),
            (dict(switch_freq_hz=math.nan), "switch_freq_hz"),
            (dict(agc_low_code=5000), "agc_floor_code < agc_low_code <= agc_high_code"),
            (dict(agc_low_code=757), "agc_floor_code < agc_low_code <= agc_high_code"),
            (dict(agc_floor_code=3000), "agc_floor_code < agc_low_code <= agc_high_code"),
            (dict(threshold_dbm=math.nan), "threshold_dbm"),
        ],
    )
    def test_out_of_domain_config_raises(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            ControllerConfig(**overrides)

    def test_domain_edges_are_accepted(self):
        ControllerConfig(agc_low_code=2965, retune_deadband_hz=0.0, switch_freq_hz=5e9)
        ControllerConfig(agc_floor_code=2814)


class TestOnSample:
    def test_engage_above_threshold(self, chain, controller, calibration):
        codes = codes_at(chain, 6e9, 2.0, 0.0, t_s=1e-6)
        st, actions = on_sample(codes, ControllerState(), controller, calibration)
        assert ACT_TUNE in kinds(actions)
        assert st.mode == MODE_ENGAGING
        assert st.pending_at_s == pytest.approx(1e-6 + controller.clock_period)
        assert st.tuned_freq_hz == pytest.approx(6e9, abs=50e6)
        tune = next(a for a in actions if a.kind == ACT_TUNE)
        assert tune.freq_hz == pytest.approx(6e9, abs=50e6)
        for a in actions:
            assert a.effective_at_s == pytest.approx(1e-6 + controller.clock_period)

    def test_pending_mode_resolves_next_sample(self, chain, controller, calibration):
        codes = codes_at(chain, 6e9, 2.0, 0.0, t_s=1e-6)
        st, _ = on_sample(codes, ControllerState(), controller, calibration)
        later = codes_at(chain, 6e9, 2.0, st.att_db, t_s=1e-6 + 200e-9)
        st2, _ = on_sample(later, st, controller, calibration)
        assert st2.mode == MODE_ENGAGED
        assert st2.pending_at_s is None

    def test_idle_below_threshold(self, chain, controller, calibration):
        codes = codes_at(chain, 6e9, -5.0, 0.0)
        st, actions = on_sample(codes, ControllerState(), controller, calibration)
        assert st.mode == MODE_IDLE
        assert not actions

    def test_threshold_configurable(self, chain, controller, calibration):
        low = replace(controller, threshold_dbm=-16.0)
        codes = codes_at(chain, 6e9, -10.0, 0.0)
        st, actions = on_sample(codes, ControllerState(), low, calibration)
        assert st.mode == MODE_ENGAGING
        assert ACT_TUNE in kinds(actions)

    def test_release_on_signal_loss(self, chain, controller, calibration):
        floor = detector_floor_code(chain)
        engaged = ControllerState(mode=MODE_ENGAGED, tuned_freq_hz=6e9)
        codes = TapCodes(2e-6, floor, floor, floor, 0.0)
        st, actions = on_sample(codes, engaged, controller, calibration)
        assert kinds(actions) == [ACT_RELEASE]
        assert st.mode == MODE_RELEASING
        assert st.pending_at_s == pytest.approx(2e-6 + controller.clock_period)
        assert st.tuned_freq_hz is None

    def test_release_below_threshold(self, chain, controller, calibration):
        engaged = ControllerState(mode=MODE_ENGAGED, tuned_freq_hz=6e9)
        codes = codes_at(chain, 6e9, -5.0, 0.0)
        st, actions = on_sample(codes, engaged, controller, calibration)
        assert ACT_RELEASE in kinds(actions)
        assert st.tuned_freq_hz is None

    def test_retune_outside_deadband(self, chain, controller, calibration):
        engaged = ControllerState(mode=MODE_ENGAGED, att_db=2.0, tuned_freq_hz=6e9)
        codes = codes_at(chain, 6.6e9, 2.0, 2.0)
        st, actions = on_sample(codes, engaged, controller, calibration)
        assert kinds(actions) == [ACT_TUNE]
        assert st.tuned_freq_hz == pytest.approx(6.6e9, abs=50e6)
        assert st.mode == MODE_ENGAGING

    def test_no_retune_inside_deadband(self, chain, controller, calibration):
        engaged = ControllerState(mode=MODE_ENGAGED, att_db=2.0, tuned_freq_hz=6e9)
        codes = codes_at(chain, 6.2e9, 2.0, 2.0)
        st, actions = on_sample(codes, engaged, controller, calibration)
        assert ACT_TUNE not in kinds(actions)
        assert st.tuned_freq_hz == 6e9

    def test_saturated_reading_holds_mode(self, chain, controller, calibration):
        # +3 dBm pins the open-end detector: the ratio is meaningless, so
        # no engage decision may be taken from this sample
        codes = codes_at(chain, 6e9, 3.0, 0.0)
        st, actions = on_sample(codes, ControllerState(), controller, calibration)
        assert st.mode == MODE_IDLE
        assert kinds(actions) == [ACT_SET_ATT]
        # and an engaged controller must not release on a saturated sample
        engaged = ControllerState(mode=MODE_ENGAGED, tuned_freq_hz=6e9)
        st2, actions2 = on_sample(codes, engaged, controller, calibration)
        assert st2.mode == MODE_ENGAGED
        assert ACT_RELEASE not in kinds(actions2)

    def test_idle_no_signal_takes_no_action(self, chain, controller, calibration):
        floor = detector_floor_code(chain)
        codes = TapCodes(1e-6, floor, floor, floor, 0.0)
        st, actions = on_sample(codes, ControllerState(), controller, calibration)
        assert not actions
        assert st.mode == MODE_IDLE
        assert st.last_estimate is None

    def test_freeze_skips_estimation(self, chain, controller, calibration):
        frozen = ControllerState(freeze_samples=1)
        codes = codes_at(chain, 6e9, 0.0, 0.0)  # would engage if estimated
        st, actions = on_sample(codes, frozen, controller, calibration)
        assert not actions
        assert st.mode == MODE_IDLE
        assert st.freeze_samples == 0

    @pytest.mark.parametrize(
        "codes, match",
        [
            (TapCodes(1e-6, 99999, 2788, 2857, 0.0), "code_oc=99999"),
            (TapCodes(1e-6, -7, 2788, 2857, 0.0), "code_oc=-7"),
            (TapCodes(1e-6, 2965, 2788, 4096, 0.0), "code_l2=4096"),
            (TapCodes(1e-6, 2965, 2788, 2857, 0.1), "att_db=0.1"),
            # Floor readings, which are not estimated, are checked all the same.
            (TapCodes(1e-6, 757.0, 757, 757, 0.0), "code_oc=757.0"),
            (TapCodes(1e-6, 700, 757.0, 757, 0.0), "code_l1=757.0"),
            (TapCodes(1e-6, 757, 757, -1, 0.0), "code_l2=-1"),
            (TapCodes(1e-6, 757, 757, 757, 0.1), "att_db=0.1"),
        ],
    )
    @pytest.mark.parametrize("freeze", [0, 1])
    def test_codes_checked_on_every_sample(self, controller, calibration, codes, match, freeze):
        with pytest.raises(ValueError, match=match):
            on_sample(codes, ControllerState(freeze_samples=freeze), controller, calibration)

    @settings(max_examples=40, deadline=None)
    @given(
        t_s=st.sampled_from((math.nan, math.inf, -math.inf)),
        triple=st.sampled_from(((2950, 2774, 2842), (757, 757, 757), (3101, 2000, 2000))),
        att_db=st.sampled_from((0.0, 2.25, 31.75)),
        state=st.sampled_from(
            (
                ControllerState(),
                ControllerState(freeze_samples=1),
                ControllerState(mode=MODE_ENGAGING, tuned_freq_hz=8e9, pending_at_s=1e-6),
                ControllerState(mode=MODE_ENGAGED, tuned_freq_hz=8e9),
            )
        ),
    )
    def test_non_finite_time_refused(self, controller, calibration, t_s, triple, att_db, state):
        # Every action decided on such a sample would take effect at t_s + clock_period.
        with pytest.raises(ValueError, match=r"^t_s=(nan|inf|-inf) is not a finite time$"):
            on_sample(TapCodes(t_s, *triple, att_db), state, controller, calibration)

    def test_codes_checked_before_time(self, controller, calibration):
        with pytest.raises(ValueError, match="code_oc=99999"):
            on_sample(TapCodes(math.nan, 99999, 2774, 2842, 2.25), ControllerState(), controller, calibration)

    def test_attenuator_step_freezes_next_sample(self, chain, controller, calibration):
        codes = codes_at(chain, 6e9, 2.0, 0.0)
        st, actions = on_sample(codes, ControllerState(), controller, calibration)
        assert ACT_SET_ATT in kinds(actions)
        assert st.freeze_samples == 1
        assert st.att_db == 0.25

    def test_overrange_diagnostic(self, chain, controller, calibration):
        codes = TapCodes(1e-6, chain.adc.full_code, 2000, 2000, chain.attenuator.max_db)
        st_full = ControllerState(att_db=chain.attenuator.max_db)
        st, _ = on_sample(codes, st_full, controller, calibration)
        assert st.diagnostic is not None
        assert "verrange" in st.diagnostic

    def test_overrange_diagnostic_on_acquired_codes(self, chain, controller, calibration):
        # An acquired open-end code tops out at the detector ceiling, below the ADC's full code.
        top = chain.attenuator.max_db
        codes = chain_readout_lines([(8e9, dbm_to_watts(35.0))], chain, top, t_s=1e-6)
        assert codes.code_oc == calibration.ceiling_code < chain.adc.full_code
        st, actions = on_sample(codes, ControllerState(att_db=top, freeze_samples=1), controller, calibration)
        assert not actions
        assert st.diagnostic is not None and st.diagnostic.startswith("overrange")

    def test_sample_loop_locks_and_settles(self, chain, controller, calibration):
        # a +2 dBm appearance: engage on the first sample, walk the
        # attenuator 8 steps (2 dB), then hold with no further actions
        st = ControllerState()
        all_actions = []
        for k in range(14):
            codes = codes_at(chain, 6e9, 2.0, st.att_db, t_s=k * 200e-9)
            st, actions = on_sample(codes, st, controller, calibration)
            all_actions.extend(actions)
        assert st.mode == MODE_ENGAGED
        assert st.att_db == pytest.approx(2.0)
        ks = kinds(all_actions)
        assert ks.count(ACT_SET_ATT) == 8
        assert ks.count(ACT_TUNE) == 1
        assert ks.count(ACT_RELEASE) == 0


class TestEstimateMemo:
    """on_sample estimates no floor reading, and any other unfrozen one from its codes, table and switch alone.

    The state it is given, whatever samples it has seen, carries no
    estimate into the answer.
    """

    @pytest.mark.parametrize("mode, released", [(MODE_IDLE, False), (MODE_ENGAGED, True)])
    def test_floor_reading_makes_no_estimate_call(self, chain, controller, calibration, monkeypatch, mode, released):
        import swsense.controller as controller_mod

        def refuse(*args):
            raise AssertionError("estimate called on a floor reading")

        monkeypatch.setattr(controller_mod, "estimate", refuse)
        floor = detector_floor_code(chain)
        prior = ControllerState(mode=mode, tuned_freq_hz=8e9 if released else None)
        st, actions = on_sample(TapCodes(1e-6, floor, 2000, 2000, 0.0), prior, controller, calibration)
        assert kinds(actions) == ([ACT_RELEASE] if released else [])
        assert st.last_estimate is None and st.diagnostic is None
        assert st.tuned_freq_hz is None

    def test_another_table_or_switch_gives_the_cold_answer(self, chain, controller, calibration):
        codes = codes_at(chain, 4.5e9, -5.0, 0.0)
        warm, _ = on_sample(codes, ControllerState(), controller, calibration)
        shifted = replace(calibration, freqs_hz=calibration.freqs_hz + 50e6)
        low_switch = replace(controller, switch_freq_hz=3e9)
        for ctrl, cal in ((controller, shifted), (low_switch, calibration)):
            cold, _ = on_sample(codes, ControllerState(), ctrl, cal)
            assert cold.last_estimate != warm.last_estimate
            carried, _ = on_sample(codes, warm, ctrl, cal)
            assert carried.last_estimate == cold.last_estimate
            back, _ = on_sample(codes, carried, controller, calibration)
            assert back.last_estimate == warm.last_estimate

    def test_same_codes_at_another_attenuation_are_estimated_afresh(self, chain, controller, calibration):
        codes = codes_at(chain, 6e9, -5.0, 0.0)
        warm, _ = on_sample(codes, ControllerState(), controller, calibration)
        attenuated = codes._replace(att_db=1.0)
        st, _ = on_sample(attenuated, warm, controller, calibration)
        assert st.last_estimate == estimate(attenuated, calibration)
        assert st.last_estimate.power_dbm > warm.last_estimate.power_dbm

    def test_float_code_equal_to_a_memoised_code_is_refused(self, chain, controller, calibration):
        codes = codes_at(chain, 6e9, -5.0, 0.0)
        warm, _ = on_sample(codes, ControllerState(), controller, calibration)
        with pytest.raises(ValueError, match="code_oc="):
            on_sample(codes._replace(code_oc=float(codes.code_oc)), warm, controller, calibration)


_CONFIDENCES = (CONF_IN_RANGE, CONF_CLAMPED, CONF_SATURATED)
_codes = st.one_of(st.integers(0, 4095), st.integers())
# Attenuator settings, and anything else a float can be.
_att = st.one_of(st.integers(0, 127).map(lambda n: n * 0.25), st.floats())


@settings(max_examples=300, deadline=None)
@given(
    oc=_codes,
    l1=_codes,
    l2=_codes,
    att=_att,
    st_att=st.integers(0, 127).map(lambda n: n * 0.25),
    mode=st.sampled_from((MODE_IDLE, MODE_ENGAGING, MODE_ENGAGED, MODE_RELEASING)),
    tuned=st.one_of(st.none(), st.floats(1e9, 16e9)),
    freeze=st.integers(0, 1),
)
def test_code_triples_give_a_typed_error_or_an_in_domain_answer(
    chain, controller, calibration, oc, l1, l2, att, st_att, mode, tuned, freeze
):
    """Any code triple and att_db: a typed error, or an answer inside the model's domain."""
    f_max = chain.stub.taps[0].f_max_hz
    codes = TapCodes(1e-6, oc, l1, l2, att)
    try:
        est = estimate(codes, calibration)
    except ValueError:
        malformed = True
    except SwsenseError:
        malformed = False
    else:
        malformed = False
        assert 0.0 <= est.freq_hz <= f_max
        assert math.isfinite(est.power_dbm)
        assert est.confidence in _CONFIDENCES
    state = ControllerState(mode=mode, att_db=st_att, tuned_freq_hz=tuned, freeze_samples=freeze)
    if malformed:
        # Frozen or not, a code outside the ADC range or an att_db that is not a setting is refused.
        with pytest.raises(ValueError):
            on_sample(codes, state, controller, calibration)
        return
    nxt, actions = on_sample(codes, state, controller, calibration)
    assert chain.attenuator.valid_setting(nxt.att_db)
    for a in actions:
        assert a.effective_at_s > codes.t_s
        if a.kind == ACT_SET_ATT:
            assert chain.attenuator.valid_setting(a.att_db)
        elif a.kind == ACT_TUNE:
            assert 0.0 <= a.freq_hz <= f_max
    est = nxt.last_estimate
    if est is not None:
        assert 0.0 <= est.freq_hz <= f_max and est.confidence in _CONFIDENCES


class TestRecords:
    """TapCodes, ControllerState and Action: immutable records, equal and hashed field by field."""

    RECORDS = [
        (TapCodes, ("t_s", "code_oc", "code_l1", "code_l2", "att_db"), (1e-6, 2900, 2723, 2792, 0.25)),
        (
            ControllerState,
            ("mode", "att_db", "tuned_freq_hz", "pending_at_s", "freeze_samples", "last_estimate", "diagnostic"),
            (MODE_ENGAGING, 1.5, 8e9, 2e-6, 1, Estimate(8e9, 2.0, "l1"), "note"),
        ),
        (Action, ("kind", "effective_at_s", "freq_hz", "att_db"), (ACT_TUNE, 2e-7, 8e9, None)),
    ]

    @pytest.mark.parametrize("cls, fields, values", RECORDS)
    def test_fields_in_order(self, cls, fields, values):
        assert cls._fields == fields
        rec = cls(*values)
        assert tuple(getattr(rec, name) for name in fields) == values

    def test_defaults(self):
        assert ControllerState() == ControllerState(MODE_IDLE, 0.0, None, None, 0, None, None)
        assert ControllerState._field_defaults == {
            "mode": MODE_IDLE,
            "att_db": 0.0,
            "tuned_freq_hz": None,
            "pending_at_s": None,
            "freeze_samples": 0,
            "last_estimate": None,
            "diagnostic": None,
        }
        assert Action(ACT_RELEASE, 2e-7) == Action(ACT_RELEASE, 2e-7, None, None)
        assert Action._field_defaults == {"freq_hz": None, "att_db": None}
        assert TapCodes._field_defaults == {}

    @pytest.mark.parametrize("cls, fields, values", RECORDS)
    def test_fields_cannot_be_assigned(self, cls, fields, values):
        rec = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.extra = 1

    @pytest.mark.parametrize("cls, fields, values", RECORDS)
    def test_equality_and_hash(self, cls, fields, values):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(fields, values)))
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
        for name in fields:
            assert by_position._replace(**{name: "other"}) != by_position

    @pytest.mark.parametrize("cls, fields, values", RECORDS)
    def test_replace(self, cls, fields, values):
        rec = cls(*values)
        for i, name in enumerate(fields):
            new = rec._replace(**{name: "other"})
            assert type(new) is cls and getattr(new, name) == "other"
            assert new[:i] + new[i + 1 :] == values[:i] + values[i + 1 :]
        assert rec == cls(*values)  # unchanged

    def test_on_sample_sees_states_built_either_way_alike(self, chain, controller, calibration):
        codes = codes_at(chain, 6e9, -5.0, 0.0)
        warm, _ = on_sample(codes, ControllerState(), controller, calibration)
        for st in (ControllerState(), warm, warm._replace(mode=MODE_ENGAGED, tuned_freq_hz=5e9, freeze_samples=0)):
            by_keyword = ControllerState(**st._asdict())
            by_position = ControllerState(*st)
            assert on_sample(codes, by_keyword, controller, calibration) == on_sample(
                codes, by_position, controller, calibration
            )
