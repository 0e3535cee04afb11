"""The per-reading path runs on Python scalars: no numpy interpolation, table
views that read as Python floats, and one agc_policy rule for scalars and arrays."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swsense.controller import ControllerConfig, ControllerState, agc_policy, on_sample
from swsense.core import SignalDescriptor, Tone, dbm_to_watts
from swsense.coupling import DirectionalCouplerParams
from swsense.estimator import CONF_IN_RANGE, check_codes, estimate
from swsense.readout import AttenuatorParams, ChainConfig, TapCodes, chain_readout, chain_readout_lines


def codes_at(chain, f_hz, p_dbm, att_db=0.0):
    return chain_readout(SignalDescriptor((Tone(freq_hz=f_hz, power_dbm=p_dbm),)), chain, att_db, t_s=1e-6)


@pytest.fixture
def no_np_interp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.interp called on the per-reading path")

    monkeypatch.setattr(np, "interp", refuse)


class TestNoNumpyInterp:
    @pytest.mark.parametrize("f_hz, p_dbm, tap", [(8e9, 0.0, "l1"), (12e9, -7.0, "l1"), (3e9, -5.0, "l2")])
    def test_estimate_and_on_sample(self, chain, controller, calibration, f_hz, p_dbm, tap, no_np_interp):
        cal = replace(calibration)  # no fronts yet, so building one is on the path too
        codes = codes_at(chain, f_hz, p_dbm)
        est = estimate(codes, cal)
        assert (est.tap_used, est.confidence) == (tap, CONF_IN_RANGE)
        assert abs(est.freq_hz - f_hz) < 0.1e9 and abs(est.power_dbm - p_dbm) < 1.0
        state, _ = on_sample(codes, ControllerState(), controller, cal)
        assert state.last_estimate == est

    def test_readout_through_coupler_and_ripple_tables(self, no_np_interp):
        cfg = ChainConfig(
            coupling_kind="coupler",
            coupler=DirectionalCouplerParams(coupling_db=((1e9, -14.0), (14e9, -16.0))),
            gain_ripple=((1e9, 0.5), (14e9, -0.5)),
        )
        assert chain_readout_lines([(7.5e9, dbm_to_watts(0.0))], cfg, 0.0).code_oc > 0


class TestTableViews:
    def test_views_are_read_only_and_share_the_arrays(self, chain, calibration):
        codes = codes_at(chain, 8e9, 0.0)
        estimate(codes, calibration)  # a front on the table too
        front = calibration.fronts[0][codes.code_oc]
        views = [calibration.powers_view, *calibration.stub_rows, front[2], front[3]]
        for v in views:
            assert isinstance(v, memoryview) and v.readonly and v.format == "d"
            with pytest.raises(TypeError, match="read-only"):
                v[0] = v[0]
        assert np.shares_memory(np.asarray(calibration.powers_view), calibration.powers_dbm)
        assert np.shares_memory(np.asarray(calibration.stub_rows[3]), calibration.stub_level)

    def test_table_pickles(self, chain, calibration):
        codes = codes_at(chain, 8e9, 0.0)
        estimate(codes, calibration)
        back = pickle.loads(pickle.dumps(calibration))
        assert back.fronts == ({}, {})  # rebuilt from the fields it is made from
        assert estimate(codes, back) == estimate(codes, calibration)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type and message are the outcome
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize(
    "codes, message",
    [
        (TapCodes(0.0, 2900, 2700, 2800, 0.25), None),
        (TapCodes(0.0, np.int64(2900), 2700, 2800, 0.25), None),
        (TapCodes(0.0, 2900, np.int64(2700), 2800, np.float64(0.25)), None),
        (TapCodes(0.0, 2900, 2700, 2800, 1), None),
        (TapCodes(0.0, True, 2700, 2800, 0.25), "code_oc=True is not an ADC code in [0, 4095]"),
        (TapCodes(0.0, 2900, 4096, 2800, 0.25), "code_l1=4096 is not an ADC code in [0, 4095]"),
        (TapCodes(0.0, 2900, 2700, -1, 0.25), "code_l2=-1 is not an ADC code in [0, 4095]"),
        (TapCodes(0.0, np.int64(5000), 2700, 2800, 0.25), "code_oc=np.int64(5000) is not an ADC code in [0, 4095]"),
        (TapCodes(0.0, 2900.0, 2700, 2800, 0.25), "code_oc=2900.0 is not an ADC code in [0, 4095]"),
        (TapCodes(0.0, 2900, 2700, 2800, 0.3), "att_db=0.3 is not a multiple of 0.25 within [0, 31.75]"),
        (TapCodes(0.0, 9999, 2700, 2800, 0.3), "code_oc=9999 is not an ADC code in [0, 4095]"),
        (TapCodes(0.0, 2900, 2700, 2800, math.nan), "att_db=nan is not a multiple of 0.25 within [0, 31.75]"),
        (TapCodes(0.0, 2900, False, 2800, 0.25), "code_l1=False is not an ADC code in [0, 4095]"),
    ],
)
def test_check_codes(chain, codes, message):
    want = ("ok", None) if message is None else ("ValueError", message)
    assert outcome(check_codes, codes, chain) == want


@pytest.mark.parametrize("attenuator", [AttenuatorParams(), AttenuatorParams(step_db=0.3, max_db=3.0)])
@settings(max_examples=150, deadline=None)
@given(oc=st.integers(0, 4095) | st.sampled_from([757, 758, 2814, 2815, 2965, 2966]), k=st.integers(0, 127))
def test_agc_policy_answers_alike_for_ints_numpy_scalars_and_arrays(attenuator, oc, k):
    chain = ChainConfig(attenuator=attenuator)
    ctrl = ControllerConfig()
    att_db = min(k * attenuator.step_db, attenuator.max_db)
    got = agc_policy(oc, att_db, ctrl, chain)
    assert type(got) is float
    assert got == agc_policy(np.int64(oc), att_db, ctrl, chain)
    assert got == agc_policy(np.array([oc]), np.array([att_db]), ctrl, chain)[0]
    if oc in (0, 1):
        assert got == agc_policy(bool(oc), att_db, ctrl, chain)
