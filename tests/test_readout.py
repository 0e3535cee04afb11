"""Read-out chain: detectors, ADC, and the composed monitor path.

The chain anchor codes are frozen from a hand evaluation that composes
coupling, gain, stub ratio, log law, and quantization with plain math,
written out in test_chain_codes_hand_composed below.
"""

import math
import re
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import swsense.readout
import swsense.stub
from scalar_reference import ceiling_code_ref, floor_code_ref, reads_two_codes
from swsense.codec import to_json
from swsense.controller import ControllerConfig, settle_cw
from swsense.core import SignalDescriptor, Tone, dbm_to_watts
from swsense.coupling import DirectionalCouplerParams, ResistiveTapParams, tap_coupling, tap_sparams
from swsense.engine import get_calibration, load_scenario
from swsense.errors import OutOfBandError
from swsense.filters import NotchModel, tune
from swsense.readout import (
    AdcParams,
    AmplifierParams,
    AttenuatorParams,
    ChainConfig,
    DetectorParams,
    chain_config_from_dict,
    chain_config_hash,
    chain_codes_cw,
    chain_readout,
    chain_readout_lines,
    chain_voltages,
    chain_voltages_lines,
    load_chain_config,
    save_chain_config,
)
from swsense.stub import StubParams, TapSpec


def watts_for_open_end(cfg, v_oc):
    """Input watts of one 8 GHz line that put v_oc volts rms on cfg's open end at 0 dB attenuation."""
    p_stub = v_oc * v_oc / (8.0 * cfg.stub.z0s)
    return p_stub / 10.0 ** ((cfg.coupling_db_at(8e9) + cfg.amplifier.gain_db) / 10.0)


class TestDetector:
    """The detector law, read through chain_voltages_lines at the open end."""

    def test_log_law_anchor(self, chain):
        for v_oc, level in ((0.63245553, 0.92041200), (1.0, chain.detector.intercept_b)):
            got = chain_voltages_lines([(8e9, watts_for_open_end(chain, v_oc))], chain, 0.0)[0]
            assert got == pytest.approx(level, abs=1e-6)

    def test_clamps(self, chain):
        det = chain.detector
        lo = det.slope_a * math.log10(det.v_in_min) + det.intercept_b
        hi = det.slope_a * math.log10(det.v_in_max) + det.intercept_b
        assert chain_voltages_lines([], chain, 0.0) == (lo, lo, lo)
        assert chain_voltages_lines([(8e9, watts_for_open_end(chain, 1e-9))], chain, 0.0) == (lo, lo, lo)
        # 100 V asked for; the amplifier's ceiling leaves 6.3 V, still past v_in_max.
        assert chain_voltages_lines([(8e9, watts_for_open_end(chain, 100.0))], chain, 0.0)[0] == hi

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(slope_a=0.0)
        with pytest.raises(ValueError):
            DetectorParams(v_in_min=2.0, v_in_max=1.0)


def level_chain(level, adc=AdcParams()):
    """A chain whose detectors all read `level` volts for a 1 W line at 8 GHz: they clamp at v_in_max = 1 V, where log10 is 0."""
    return ChainConfig(detector=DetectorParams(intercept_b=level, v_in_min=0.01, v_in_max=1.0), adc=adc)


class TestAdc:
    """The ADC's quantization, read through chain_readout_lines."""

    def test_midscale(self):
        adc = AdcParams()
        assert adc.lsb == pytest.approx(1.398 / 4096)
        assert chain_readout_lines([(8e9, 1.0)], level_chain(adc.v_fs / 2.0), 0.0)[1:4] == (2048,) * 3

    def test_clamps_to_code_range(self):
        # Each chain's range straddles one end of the ADC's: no input reads
        # -0.3 V on the first, and a 1 W line reads 1.5 V on the second.
        low, high = level_chain(0.5), level_chain(1.5)
        assert chain_voltages_lines([], low, 0.0) == pytest.approx((-0.3,) * 3)
        assert chain_readout_lines([], low, 0.0)[1:4] == (0,) * 3 == (low.floor_code,) * 3
        assert chain_voltages_lines([(8e9, 1.0)], high, 0.0) == pytest.approx((1.5,) * 3)
        assert chain_readout_lines([(8e9, 1.0)], high, 0.0)[1:4] == (AdcParams().full_code,) * 3 == (4095,) * 3

    def test_bits_validated(self):
        AdcParams(bits=6)
        AdcParams(bits=16)
        with pytest.raises(ValueError):
            AdcParams(bits=5)
        with pytest.raises(ValueError):
            AdcParams(bits=17)

    def test_sample_period(self):
        assert AdcParams().sample_period == pytest.approx(2e-7)


class TestAttenuator:
    def test_valid_settings(self):
        att = AttenuatorParams()
        assert att.valid_setting(0.0)
        assert att.valid_setting(0.25)
        assert att.valid_setting(31.75)
        assert not att.valid_setting(0.3)
        assert not att.valid_setting(32.0)
        assert not att.valid_setting(-0.25)

    # 3e5, the top multiple of the fourth, lies above max_db and is no
    # setting; the last has more settings than check_setting stores.
    ATTENUATORS = (AttenuatorParams(), AttenuatorParams(0.1, 3.0), AttenuatorParams(0.3, 3.0),
                   AttenuatorParams(1e5, 3e5 - 0.05), AttenuatorParams(1e-6, 31.75))

    @settings(max_examples=400)
    @given(data=st.data())
    def test_check_setting_accepts_exactly_the_valid_settings(self, data):
        att = data.draw(st.sampled_from(self.ATTENUATORS))
        n = int(round(att.max_db / att.step_db))

        def near(k, ulps, offset):
            """k steps, moved by a few ulps and by an offset around valid_setting's tolerance."""
            x = k * att.step_db
            for _ in range(abs(ulps)):
                x = math.nextafter(x, math.copysign(math.inf, ulps))
            return x + offset * att.step_db

        offsets = st.sampled_from((0.0, 5e-7, -5e-7, 2e-6, -2e-6))
        x = data.draw(
            st.builds(near, st.integers(-2, n + 2), st.integers(-3, 3), offsets)
            | st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, att.max_db, n * att.step_db))
            | st.floats()
        )
        x = data.draw(st.sampled_from((x, np.float64(x))))
        if att.valid_setting(x):
            att.check_setting(x)
        else:
            with pytest.raises(ValueError, match=re.escape(f"att_db={x} is not a multiple of {att.step_db}")):
                att.check_setting(x)

    def test_validation(self):
        with pytest.raises(ValueError):
            AttenuatorParams(step_db=0.0)
        with pytest.raises(ValueError):
            AttenuatorParams(step_db=1.0, max_db=0.5)
        with pytest.raises(ValueError, match="whole number"):
            AttenuatorParams(step_db=0.3, max_db=31.75)


def test_floor_and_ceiling_codes(chain):
    assert (chain.floor_code, chain.ceiling_code) == (757, 3101)
    assert chain_readout_lines([], chain, 0.0)[1:4] == (757,) * 3
    assert chain_readout_lines([(8e9, 1.0)], chain, 0.0).code_oc == 3101


@st.composite
def range_chains(draw):
    """A tap, coupler or rippled chain with a drawn detector and ADC whose v_in_max the amplifier's ceiling (6.3 V) passes.

    The detector's range reads at least two codes, as a chain requires, and may clamp at 0 or at full_code.
    """
    det = DetectorParams(
        slope_a=draw(st.floats(0.01, 2.0)),
        intercept_b=draw(st.floats(-3.0, 3.0)),
        v_in_min=draw(st.floats(1e-4, 0.5)),
        v_in_max=draw(st.floats(0.6, 6.0)),
    )
    adc = AdcParams(bits=draw(st.integers(6, 16)), v_fs=draw(st.floats(0.5, 3.0)))
    assume(reads_two_codes(det, adc))
    kind = draw(st.sampled_from(["tap", "coupler", "ripple"]))
    if kind == "ripple":
        return ChainConfig(detector=det, adc=adc, gain_ripple=((1e9, -1.0), (16e9, 2.0)))
    return ChainConfig(coupling_kind=kind, detector=det, adc=adc)


def read_range(cfg):
    """(floor, ceiling) as the readout reads them: every code of no input, and the open end of a 10 W line."""
    zero = chain_readout_lines([], cfg, 0.0)[1:4]
    assert len(set(zero)) == 1
    return zero[0], chain_readout_lines([(8e9, 10.0)], cfg, 0.0).code_oc


class TestRangeCodes:
    """A chain's floor_code and ceiling_code are the codes its readout gives, recomputed with the chain."""

    @given(range_chains(), range_chains())
    def test_codes_are_the_readouts(self, cfg, other):
        assert (cfg.floor_code, cfg.ceiling_code) == read_range(cfg) == (floor_code_ref(cfg), ceiling_code_ref(cfg))
        moved = replace(cfg, detector=other.detector, adc=other.adc)
        assert (moved.floor_code, moved.ceiling_code) == read_range(moved)
        loaded = chain_config_from_dict(to_json(moved))
        assert loaded == moved and (loaded.floor_code, loaded.ceiling_code) == read_range(moved)


def test_chain_codes_hand_composed(chain):
    # Independent composition for 8 GHz at 0 dBm, attenuator at 0:
    coupling = 20.0 * math.log10(2.0 * 50.0 / (2.0 * 220.0 + 3.0 * 50.0))
    p_stub_w = 1e-3 * 10.0 ** ((coupling + 20.0) / 10.0)
    v_oc = math.sqrt(8.0 * p_stub_w * 50.0)
    lsb = 1.398 / 4096
    expect = []
    for ratio in (1.0, abs(math.cos(math.pi / 2 * 8 / 16)), abs(math.cos(math.pi / 2 * 8 / 5))):
        v_det = 0.4 * math.log10(v_oc * ratio) + 1.0
        expect.append(math.floor(v_det / lsb))
    assert expect == [2965, 2788, 2857]

    codes = chain_readout_lines([(8e9, 1e-3)], chain, 0.0)
    assert (codes.code_oc, codes.code_l1, codes.code_l2) == (2965, 2788, 2857)


def test_chain_readout_descriptor_matches_lines(chain):
    sig = SignalDescriptor(tones=(Tone(freq_hz=8e9, power_dbm=0.0),))
    a = chain_readout(sig, chain, 0.0)
    b = chain_readout_lines([(8e9, 1e-3)], chain, 0.0)
    assert (a.code_oc, a.code_l1, a.code_l2) == (b.code_oc, b.code_l1, b.code_l2)


def test_l1_null_reads_floor(chain):
    codes = chain_readout_lines([(16e9, 1e-3)], chain, 0.0)
    assert codes.code_l1 == chain.floor_code
    assert codes.code_oc > codes.code_l1


@pytest.mark.parametrize("kind", ["tap", "coupler"])
def test_lines_above_the_stub_band_are_refused(kind):
    cfg = ChainConfig(coupling_kind=kind, stub=StubParams(taps=(TapSpec("l1", 12e9), TapSpec("l2", 5e9))))
    chain_voltages_lines([(12e9, 1e-3)], cfg, 0.0)  # f_max itself is in band
    chain_codes_cw(np.array([2e9, 12e9]), np.array([0.0]), np.array([0.0]), cfg)
    with pytest.raises(OutOfBandError, match=r"^12\.500 GHz above the stub band \(tap l1"):
        chain_voltages_lines([(6e9, 1e-3), (12.5e9, 1e-3)], cfg, 0.0)
    with pytest.raises(OutOfBandError):
        chain_codes_cw(np.array([2e9, 12.5e9]), np.array([0.0]), np.array([0.0]), cfg)


def test_attenuation_shifts_voltages_exactly(chain):
    # 10 dB of attenuation moves every unclamped detector by slope_a/2 volts
    v0 = chain_voltages_lines([(8e9, 1e-3)], chain, 0.0)
    v10 = chain_voltages_lines([(8e9, 1e-3)], chain, 10.0)
    for a, b in zip(v0, v10):
        assert a - b == pytest.approx(0.2, abs=1e-12)


def test_attenuator_setting_validated(chain):
    with pytest.raises(ValueError):
        chain_voltages_lines([(8e9, 1e-3)], chain, 0.3)


@given(st.floats(min_value=-35.0, max_value=-5.0), st.floats(min_value=1.0, max_value=14.0))
def test_codes_monotone_in_power(p_dbm, f_ghz):
    cfg = ChainConfig()
    lo = chain_readout_lines([(f_ghz * 1e9, 10.0 ** (p_dbm / 10.0) * 1e-3)], cfg, 0.0)
    hi = chain_readout_lines([(f_ghz * 1e9, 10.0 ** ((p_dbm + 3.0) / 10.0) * 1e-3)], cfg, 0.0)
    assert hi.code_oc >= lo.code_oc
    assert hi.code_l1 >= lo.code_l1
    assert hi.code_l2 >= lo.code_l2


def test_amplifier_ceiling_clamps_total_power(chain):
    # +30 dBm in would put +34.6 dBm on the stub; the driver caps at +20 dBm
    codes = chain_readout_lines([(8e9, 1.0)], chain, 0.0)
    v_cap = math.sqrt(8.0 * 0.1 * 50.0)  # 6.32 V, far past the detector ceiling
    assert v_cap > chain.detector.v_in_max
    assert codes.code_oc == chain.ceiling_code
    # ratios between lines survive the clamp
    v = chain_voltages_lines([(6e9, 1.0), (9e9, 0.5)], chain, 0.0)
    assert v[0] == pytest.approx(
        0.4 * math.log10(chain.detector.v_in_max) + 1.0, abs=1e-12
    )


def test_forward_ratio_scales_monitored_lines(chain):
    # a null at the pick-off point hides the line from every detector
    dark = chain_readout_lines([(8e9, 1e-3)], chain, 0.0, forward_ratios=[0.0])
    floor = chain.floor_code
    assert (dark.code_oc, dark.code_l1, dark.code_l2) == (floor, floor, floor)
    # a full standing-wave peak doubles the monitored voltage: +A*log10(2)
    v_flat = chain_voltages_lines([(8e9, 1e-5)], chain, 0.0)
    v_peak = chain_voltages_lines([(8e9, 1e-5)], chain, 0.0, forward_ratios=[2.0])
    assert v_peak[0] - v_flat[0] == pytest.approx(0.4 * math.log10(2.0), abs=1e-12)


def test_gain_ripple_offsets_detector_voltage(chain):
    rippled = ChainConfig(gain_ripple=((1e9, -1.0), (17e9, -1.0)))
    v0 = chain_voltages_lines([(8e9, 1e-3)], chain, 0.0)
    v1 = chain_voltages_lines([(8e9, 1e-3)], rippled, 0.0)
    assert v0[0] - v1[0] == pytest.approx(0.4 / 20.0, abs=1e-12)


def test_coupler_chain_defaults():
    cfg = ChainConfig(coupling_kind="coupler")
    assert cfg.coupler is not None
    assert cfg.coupling_db_at(7.5e9) == pytest.approx(-15.0)
    assert cfg.through_loss_db_at(7.5e9) == pytest.approx(1.2)
    with pytest.raises(ValueError):
        ChainConfig(coupling_kind="mystery")


def test_tap_through_loss(chain):
    assert chain.through_loss_db_at(8e9) == pytest.approx(0.769165, abs=1e-5)


class TestConfigPersistence:
    def test_json_round_trip(self, tmp_path, chain):
        path = tmp_path / "chain.json"
        save_chain_config(chain, str(path))
        assert load_chain_config(str(path)) == chain

    def test_round_trip_with_coupler_and_ripple(self, tmp_path):
        cfg = ChainConfig(coupling_kind="coupler", gain_ripple=((1e9, 0.3), (14e9, -0.4)))
        path = tmp_path / "chain.json"
        save_chain_config(cfg, str(path))
        assert load_chain_config(str(path)) == cfg

    def test_hash_tracks_content(self, chain):
        h = chain_config_hash(chain)
        assert len(h) == 16
        assert chain_config_hash(ChainConfig()) == h
        other = ChainConfig(adc=AdcParams(bits=10))
        assert chain_config_hash(other) != h

    @pytest.mark.parametrize(
        "cfg", [ChainConfig(tap=ResistiveTapParams(r_c=220)), ChainConfig(stub=StubParams(z0s=50))], ids=["r_c", "z0s"]
    )
    def test_hash_is_a_function_of_the_value(self, cfg):
        # An int where the codec reads a float: equal by value, so one hash.
        assert cfg == ChainConfig() and chain_config_hash(cfg) == "23e0f5265ca1cbe8"

    def test_tap_chain_refuses_a_coupler_block(self):
        with pytest.raises(ValueError, match=r"^coupler must be null on a tap chain"):
            ChainConfig(coupler=DirectionalCouplerParams(coupling_db=-10.0))
        with pytest.raises(ValueError, match=r"^chain: coupler must be null on a tap chain"):
            chain_config_from_dict({"coupler": {"coupling_db": -10.0}})

    def test_dict_round_trip(self, chain):
        assert chain_config_from_dict(to_json(chain)) == chain

    @pytest.mark.parametrize("block", ["tap", "attenuator", "amplifier", "detector", "adc"])
    def test_unknown_block_key_names_block_and_key(self, chain, block):
        d = to_json(chain)
        d[block]["settle_time"] = 5e-8
        with pytest.raises(ValueError, match=rf"^chain\.{block}: unknown key 'settle_time'$"):
            chain_config_from_dict(d)

    def test_partial_coupler_block_takes_defaults(self):
        cfg = chain_config_from_dict({"coupling_kind": "coupler", "coupler": {"coupling_db": -12.0}})
        assert cfg.coupler == DirectionalCouplerParams(coupling_db=-12.0)
        table = {"coupling_kind": "coupler", "coupler": {"insertion_db": [[1e9, 0.5], [14e9, 1.0]]}}
        assert chain_config_from_dict(table).coupler.insertion_db == ((1e9, 0.5), (14e9, 1.0))

    @pytest.mark.parametrize(
        "coupler, message",
        [
            ({"coupling_dbb": -15.0}, r"^chain\.coupler: unknown key 'coupling_dbb'$"),
            ([1, 2], r"^chain\.coupler: expected an object, got list$"),
        ],
    )
    def test_coupler_block_keys_checked(self, coupler, message):
        with pytest.raises(ValueError, match=message):
            chain_config_from_dict({"coupling_kind": "coupler", "coupler": coupler})

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["stub"].update(eps_ef=4.0), r"^chain\.stub: unknown key 'eps_ef'$"),
            (lambda d: d["stub"]["taps"][0].pop("f_max"), r"^chain\.stub\.taps\[0\]: missing key 'f_max'$"),
            (lambda d: d["stub"]["taps"][1].update(f_max_hz=5e9), r"^chain\.stub\.taps\[1\]: unknown key 'f_max_hz'$"),
            (lambda d: d.update(stub=[1, 2]), r"^chain\.stub: expected an object, got list$"),
        ],
    )
    def test_stub_block_keys_checked(self, chain, edit, message):
        d = to_json(chain)
        edit(d)
        with pytest.raises(ValueError, match=message):
            chain_config_from_dict(d)


class TestLineDomain:
    """chain_voltages_lines and chain_readout_lines refuse out-of-domain lines with a ValueError naming the line."""

    @pytest.mark.parametrize("kind", ["tap", "coupler"])
    @pytest.mark.parametrize(
        "f_hz, message",
        [
            (-8e9, r"^line 1: frequency -8000000000\.0 Hz is not positive and finite$"),
            (0.0, r"^line 1: frequency 0\.0 Hz"),
            (math.nan, r"^line 1: frequency nan Hz"),
            (math.inf, r"^line 1: frequency inf Hz"),
            (-math.inf, r"^line 1: frequency -inf Hz"),
        ],
    )
    def test_frequency(self, kind, f_hz, message):
        cfg = ChainConfig(coupling_kind=kind)
        for fn in (chain_voltages_lines, chain_readout_lines):
            with pytest.raises(ValueError, match=message):
                fn([(8e9, 1e-3), (f_hz, 1e-3)], cfg, 0.0)

    @pytest.mark.parametrize("p_w", [math.nan, math.inf, -1e-3])
    def test_power(self, chain, p_w):
        for fn in (chain_voltages_lines, chain_readout_lines):
            with pytest.raises(ValueError, match=rf"^line 1 at 9\.000 GHz: power {p_w!r} W is not >= 0 and finite$"):
                fn([(8e9, 1e-3), (9e9, p_w)], chain, 0.0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -0.5])
    def test_forward_ratio(self, chain, ratio):
        with pytest.raises(ValueError, match=rf"^line 0 at 8\.000 GHz: forward ratio {ratio!r} is not"):
            chain_voltages_lines([(8e9, 1e-3), (9e9, 1e-3)], chain, 0.0, forward_ratios=[ratio, 1.0])
        with pytest.raises(ValueError, match="forward ratio"):
            chain_readout_lines([(8e9, 1e-3)], chain, 0.0, forward_ratios=[ratio])
        # The last of three lines, its ratio given in a tuple as the engine gives it.
        lines = [(8e9, 1e-3), (9e9, 1e-3), (10e9, 1e-3)]
        for fn in (chain_voltages_lines, chain_readout_lines):
            with pytest.raises(ValueError, match=rf"^line 2 at 10\.000 GHz: forward ratio {ratio!r} is not"):
                fn(lines, chain, 0.0, forward_ratios=(1.0, 0.5, ratio))

    @pytest.mark.parametrize("ratios", [[], [1.0], [1.0, 1.0, 1.0]])
    def test_forward_ratios_one_per_line(self, chain, ratios):
        lines = [(8e9, 1e-3), (9e9, 1e-3)]
        message = rf"^{len(ratios)} forward ratios for 2 lines$"
        with pytest.raises(ValueError, match=message):
            chain_voltages_lines(lines, chain, 0.0, forward_ratios=ratios)
        with pytest.raises(ValueError, match=message):
            chain_readout_lines(lines, chain, 0.0, forward_ratios=ratios)

    def test_domain_edges_are_accepted(self, chain):
        f_max = chain.stub.taps[0].f_max_hz
        chain_readout_lines([(5e-324, 0.0), (f_max, 1e-3)], chain, 0.0, forward_ratios=[0.0, 2.0])

    def test_a_line_above_the_stub_band_stays_out_of_band(self, chain):
        with pytest.raises(OutOfBandError):
            chain_readout_lines([(8e9, 1e-3), (16.5e9, math.nan)], chain, 0.0)

    @pytest.mark.parametrize("kind", ["tap", "coupler"])
    def test_watts_that_overflow_after_the_gain(self, kind):
        # 3082 dBm is 1.58e305 W, which 60 dB of gain takes past the largest
        # float; the chain once read NaN voltages there.
        cfg = ChainConfig(coupling_kind=kind, amplifier=AmplifierParams(gain_db=60.0))
        big = dbm_to_watts(3082.0)
        message = r"^line 1 at 9\.000 GHz: power 1\.5848931924610721e\+305 W overflows a float after the gain$"
        for fn in (chain_voltages_lines, chain_readout_lines):
            with pytest.raises(ValueError, match=message):
                fn([(8e9, 1e-3), (9e9, big), (16.5e9, 1e-3)], cfg, 0.0)
        # At 31.75 dB of attenuation the watts fit, but not their standing-wave
        # sum, 8 * z0s times them; 10 dB less power fits both.
        message = r"^the stub drive of .* W after the gain overflows a float in its standing-wave sum$"
        for fn in (chain_voltages_lines, chain_readout_lines):
            with pytest.raises(ValueError, match=message):
                fn([(9e9, big)], cfg, 31.75)
        chain_readout_lines([(9e9, dbm_to_watts(3072.0))], cfg, 31.75)

    def test_forward_ratio_that_overflows_the_watts(self, chain):
        for ratio in (1e160, 0.0):  # 0.0 times an overflowed line is NaN
            with pytest.raises(ValueError, match=r"^line 0 at 8\.000 GHz: .* overflows a float after the gain$"):
                chain_voltages_lines([(8e9, 1e-3 if ratio else 1e308)], chain, 0.0, forward_ratios=[ratio])

    def test_lines_whose_sum_overflows(self, chain):
        # Each line's watts fit after the default chain's gain; their sum does not.
        lines = [(8e9, 4e307), (9e9, 4e307)]
        with pytest.raises(ValueError, match=r"^the 2 lines' total power after the gain overflows a float$"):
            chain_readout_lines(lines, chain, 0.0)
        # One line's watts fit, but not its standing-wave sum, 8 * z0s times them.
        message = r"^the stub drive of 1\.149\d*e\+308 W after the gain overflows a float in its standing-wave sum$"
        with pytest.raises(ValueError, match=message):
            chain_readout_lines(lines[:1], chain, 0.0)
        chain_readout_lines([(8e9, 1e305)], chain, 0.0)


# The refusal of a coupler table or gain ripple, after the field's name.
TABLE = r" needs a finite number or finite \(freq_hz, db\) pairs, got "


class TestBlockDomains:
    """Each block of the chain refuses, with a ValueError naming the field, a value it cannot model."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: AmplifierParams(gain_db=4000.0),
             r"^gain_db must be finite with a linear factor that fits a float, got 4000\.0$"),
            (lambda: AmplifierParams(gain_db=math.nan), r"^gain_db must be finite"),
            (lambda: AmplifierParams(p_out_sat_dbm=4000.0), r"^p_out_sat_dbm must be finite with a linear factor"),
            (lambda: AmplifierParams(p_out_sat_dbm=-math.inf), r"^p_out_sat_dbm must be finite"),
            (lambda: DetectorParams(slope_a=math.nan), r"^slope_a must be positive and finite, got nan$"),
            (lambda: DetectorParams(intercept_b=math.inf), r"^intercept_b must be finite, got inf$"),
            (lambda: DetectorParams(v_in_max=math.inf), r"^need 0 < v_in_min < v_in_max < inf"),
            (lambda: AdcParams(v_fs=math.nan), r"^v_fs must be positive and finite, got nan$"),
            (lambda: AdcParams(sample_rate=math.inf), r"^sample_rate must be positive and finite, got inf$"),
            (lambda: TapSpec("l1", math.nan), r"^f_max_hz must be positive and finite, got nan$"),
            (lambda: StubParams(z0s=math.nan), r"^z0s must be positive and finite, got nan$"),
            (lambda: StubParams(eps_eff=math.inf), r"^eps_eff must be positive and finite, got inf$"),
            (lambda: ResistiveTapParams(r_c=math.nan), r"^r_c must be positive and finite, got nan$"),
            (lambda: ResistiveTapParams(z0=-50.0), r"^z0 must be positive and finite, got -50\.0$"),
            (lambda: DirectionalCouplerParams(f_min_hz=math.nan), r"^need 0 < f_min_hz < f_max_hz < inf, got nan, 14000000000\.0$"),
            (lambda: DirectionalCouplerParams(f_max_hz=math.inf), r"^need 0 < f_min_hz < f_max_hz < inf, got 1000000000\.0, inf$"),
            (lambda: AttenuatorParams(max_db=math.inf),
             r"^need 0 < step_db <= max_db, max_db / step_db < inf, got 0\.25, inf$"),
            (lambda: AttenuatorParams(step_db=math.nan), r"^need 0 < step_db <= max_db, max_db / step_db < inf"),
            (lambda: AttenuatorParams(step_db=1e-320, max_db=1e10), r", got 1e-320, 10000000000\.0$"),
            (lambda: DirectionalCouplerParams(coupling_db=((1e9, -15.0), (14e9, math.nan))),
             r"^coupling_db" + TABLE + r"\(\(1000000000\.0, -15\.0\), \(14000000000\.0, nan\)\)$"),
            (lambda: DirectionalCouplerParams(insertion_db=[(math.inf, 1.0)]), r"^insertion_db" + TABLE),
            (lambda: DirectionalCouplerParams(insertion_db=((1e9, 0.8, 1.6),)), r"^insertion_db" + TABLE),
            (lambda: DirectionalCouplerParams(coupling_db=(-15.0,)), r"^coupling_db" + TABLE),
            (lambda: DirectionalCouplerParams(directivity_db=math.nan), r"^directivity_db" + TABLE + "nan$"),
            (lambda: ChainConfig(gain_ripple=((1e9, math.nan),)), r"^gain_ripple" + TABLE),
            (lambda: ChainConfig(gain_ripple=[[1e9, 1.0], [16e9]]), r"^gain_ripple" + TABLE),
            # A detector range that reads as one ADC code: below the ADC's range, above it, and inside one code.
            (lambda: ChainConfig(detector=DetectorParams(intercept_b=-100.0)),
             r"^detector range \[0\.014, 1\.4\] V reads as the one ADC code 0: the chain needs a floor_code below"),
            (lambda: ChainConfig(detector=DetectorParams(intercept_b=100.0)), r" reads as the one ADC code 4095: "),
            (lambda: ChainConfig(detector=DetectorParams(slope_a=1e-3, intercept_b=0.5001, v_in_min=1.0, v_in_max=1.2)),
             r"^detector range \[1\.0, 1\.2\] V reads as the one ADC code 1465: "),
            (lambda: replace(ChainConfig(), adc=AdcParams(v_fs=1e-3)), r" reads as the one ADC code 4095: "),
        ],
    )
    def test_block_refuses(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_amplifier_edges(self):
        # The largest gain whose factor fits a float, and a ceiling of 0 W.
        cfg = ChainConfig(amplifier=AmplifierParams(gain_db=3082.0, p_out_sat_dbm=-4000.0))
        assert cfg._sat_w == 0.0
        assert chain_readout_lines([(8e9, 1e-3)], cfg, 0.0)[1:4] == (cfg.floor_code,) * 3


class TestCwDomain:
    """chain_codes_cw takes Tone's domain, checked before any lookup, and reads 0-d cells."""

    @pytest.mark.parametrize("kind", ["tap", "coupler"])
    @pytest.mark.parametrize(
        "f_hz, p_dbm, message",
        [
            (math.nan, 0.0, r"^frequency nan Hz is not positive and finite$"),
            (-8e9, 0.0, r"^frequency -8000000000\.0 Hz is not positive and finite$"),
            (0.0, 0.0, r"^frequency 0\.0 Hz"),
            (math.inf, 0.0, r"^frequency inf Hz"),
            (8e9, math.nan, r"^power nan dBm is not finite$"),
            (8e9, math.inf, r"^power inf dBm is not finite$"),
            (8e9, -math.inf, r"^power -inf dBm is not finite$"),
            (8e9, 4000.0, r"^power 4000\.0 dBm is too large: its watts overflow a float$"),
        ],
    )
    def test_out_of_domain_cells_are_refused(self, kind, f_hz, p_dbm, message):
        cfg = ChainConfig(coupling_kind=kind)
        with pytest.raises(ValueError, match=message):
            chain_codes_cw(f_hz, p_dbm, 0.0, cfg)
        with pytest.raises(ValueError, match=message):
            chain_codes_cw(np.array([8e9, f_hz]), np.array([0.0, p_dbm]), np.array([0.0]), cfg)

    def test_domain_edges_are_accepted(self, chain):
        f_max = chain.stub.taps[0].f_max_hz
        chain_codes_cw(np.array([5e-324, f_max]), np.array([-300.0, 300.0]), 0.0, chain)

    def test_power_whose_watts_overflow_is_refused(self, chain):
        # 3082.54 dBm is about 1.79e305 W; at 3082.55 dBm, 10 ** (p / 10)
        # overflows, and the chain once read int64-minimum codes there.
        f = np.array([8e9, 8e9])
        # 3082.54 dBm passes as watts, and is refused later for its standing-wave sum after the gain.
        with pytest.raises(ValueError, match=r"^cell at 8\.000 GHz, 3082\.54 dBm and att_db=0\.0: its standing-wave sum"):
            chain_codes_cw(f, np.array([-300.0, 3082.54]), 0.0, chain)
        with pytest.raises(ValueError, match=r"^power 3082\.55 dBm is too large"):
            chain_codes_cw(f, np.array([3082.55, 3082.54]), 0.0, chain)
        # Checked after the frequencies and the non-finite powers.
        with pytest.raises(ValueError, match=r"^frequency nan Hz"):
            chain_codes_cw(np.array([math.nan, 8e9]), np.array([0.0, 4000.0]), 0.0, chain)
        with pytest.raises(ValueError, match=r"^power nan dBm is not finite$"):
            chain_codes_cw(f, np.array([4000.0, math.nan]), 0.0, chain)

    @pytest.mark.parametrize("kind", ["tap", "coupler"])
    def test_cells_whose_watts_overflow_after_the_gain_are_refused(self, kind):
        cfg = ChainConfig(coupling_kind=kind, amplifier=AmplifierParams(gain_db=60.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy warns
            with pytest.raises(ValueError, match=r"^cell at 8\.000 GHz, 3082\.0 dBm and att_db=0\.0: its watts after"):
                chain_codes_cw(8e9, 3082.0, 0.0, cfg)
            # The first such cell in C order is named.
            f, p = np.array([8e9, 9e9]), np.array([[0.0], [3082.0], [3082.5]])
            with pytest.raises(ValueError, match=r"^cell at 8\.000 GHz, 3082\.0 dBm and att_db=0\.0"):
                chain_codes_cw(f, p, np.array([0.0]), cfg)
            with pytest.raises(ValueError, match=r"overflow a float$"):
                settle_cw(8e9, 3082.0, cfg, ControllerConfig.for_chain(cfg))
            # At 31.75 dB of attenuation the watts fit, but not their
            # standing-wave sum, as in the scalar chain.
            message = r"^cell at 8\.000 GHz, 3082\.0 dBm and att_db=31\.75: its standing-wave sum after the gain overflows"
            with pytest.raises(ValueError, match=message):
                chain_codes_cw(f, p, np.array([31.75]), cfg)
            # 10 dB less power fits both, and reads the scalar chain's codes.
            got = chain_codes_cw(8e9, 3072.0, 31.75, cfg)
        ref = chain_readout_lines([(8e9, dbm_to_watts(3072.0))], cfg, 31.75)
        assert got == (ref.code_oc, ref.code_l1, ref.code_l2)

    def test_cell_whose_watts_underflow_reads_the_floor(self, chain):
        # -4000 dBm is 0 W; the amplifier ceiling's division once warned there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = chain_codes_cw(8e9, -4000.0, 0.0, chain)
        assert codes == (chain.floor_code,) * 3

    def test_cell_at_a_code_boundary_is_read_by_the_scalar_chain(self, chain, monkeypatch):
        # 8 GHz at this power lies within 1e-9 of a code boundary. A 0-d
        # cell once failed there, because np.nonzero refuses 0-d input.
        p_dbm = -1.1138135866867416
        ref = chain_readout_lines([(8e9, dbm_to_watts(p_dbm))], chain, 0.0)
        assert (ref.code_oc, ref.code_l1, ref.code_l2) == (2900, 2723, 2792)
        calls = []
        scalar = swsense.readout.chain_readout_lines
        monkeypatch.setattr(swsense.readout, "chain_readout_lines", lambda *a: calls.append(a) or scalar(*a))
        codes = chain_codes_cw(8e9, p_dbm, 0.0, chain)
        assert all(c.shape == () for c in codes) and codes == (2900, 2723, 2792)
        codes = chain_codes_cw(np.array([8e9]), np.array([p_dbm]), np.array([0.0]), chain)
        assert [c.tolist() for c in codes] == [[2900], [2723], [2792]]
        assert len(calls) == 2


def _bundled_chains():
    folder = resources.files("swsense").joinpath("data/scenarios")
    return {path.name: [st.chain for st in load_scenario(str(path)).stages] for path in sorted(folder.iterdir())}


class TestConstantsAtConstruction:
    """The per-config constants the read-out reads are computed when a config is made, and are not fields."""

    def test_adc_replace_recomputes(self):
        adc = replace(AdcParams(), bits=10)
        assert (adc.lsb, adc.full_code) == (1.398 / 2**10, 1023)
        cfg = replace(level_chain(1.5), adc=adc)
        assert chain_readout_lines([(8e9, 1.0)], cfg, 0.0)[1:4] == (1023,) * 3 == (cfg.ceiling_code,) * 3

    def test_chain_replace_recomputes(self, chain):
        tap = ResistiveTapParams(r_c=100.0)
        cfg = replace(chain, tap=tap, amplifier=AmplifierParams(p_out_sat_dbm=0.0))
        assert cfg.coupling_db_at(8e9) == tap_coupling(tap) != chain.coupling_db_at(8e9)
        assert cfg.through_loss_db_at(8e9) == -tap_sparams(tap)[1]
        # The lower ceiling now clamps a drive the default chain passes.
        assert chain_readout_lines([(8e9, 1e-2)], cfg, 0.0).code_oc < chain_readout_lines([(8e9, 1e-2)], chain, 0.0).code_oc

    def test_from_dict_recomputes(self, chain):
        d = to_json(chain)
        d["tap"]["r_c"] = 100.0
        d["adc"]["bits"] = 10
        d["stub"]["taps"][0]["f_max"] = 12e9
        cfg = chain_config_from_dict(d)
        assert cfg.coupling_db_at(8e9) == tap_coupling(ResistiveTapParams(r_c=100.0))
        assert cfg.adc.full_code == 1023
        with pytest.raises(OutOfBandError):
            chain_readout_lines([(13e9, 1e-3)], cfg, 0.0)

    def test_readout_constants_recomputed(self, chain):
        det = DetectorParams(slope_a=0.3, intercept_b=0.8, v_in_min=0.05, v_in_max=0.5)
        stub = StubParams(taps=(TapSpec("l1", 12e9), TapSpec("l2", 4e9)))
        cfg = replace(chain, coupling_kind="coupler", detector=det, adc=AdcParams(bits=6), stub=stub)
        assert cfg.coupler == DirectionalCouplerParams() and chain.coupler is None
        assert cfg._stub_band_hz == 12e9 and chain._stub_band_hz == 16e9
        assert cfg.band_hz == (1e9, 12e9) and chain.band_hz == (0.0, 16e9)
        assert cfg._det_law == (0.05, 0.5, 0.3, 0.8)
        assert cfg._adc_codes == (1.398 / 64, 63)
        assert (cfg.floor_code, cfg.ceiling_code) == (18, 32) and (chain.floor_code, chain.ceiling_code) == (757, 3101)
        # A tap chain refuses coupler params rather than reading through its tap.
        with pytest.raises(ValueError, match=r"^coupler must be null on a tap chain"):
            replace(chain, coupler=DirectionalCouplerParams())

    def test_not_in_json_repr_or_equality(self, chain):
        derived = {"_ripple", "_tap_coupling_db", "_tap_through_db", "_sat_w", "_stub_band_hz", "_det_law", "_adc_codes",
                   "floor_code", "ceiling_code", "band_hz"}
        assert derived <= set(vars(chain))
        assert set(to_json(chain.adc)) == {"bits", "sample_rate", "v_fs"}
        assert not derived & set(to_json(chain))
        assert "_f_max_hz" not in to_json(chain.stub)
        assert "lsb" not in repr(chain.adc)
        other = ChainConfig()
        object.__setattr__(other.adc, "lsb", 1.0)
        for name in derived:
            object.__setattr__(other, name, 1.0)
        assert other == chain and hash(other) == hash(chain) and repr(other) == repr(chain)
        assert chain_config_hash(other) == chain_config_hash(chain)

    def test_bundled_chains_are_hashable_values(self):
        for chains in _bundled_chains().values():
            for c in chains:
                assert hash(c) == hash(replace(c)) and c == replace(c)

    def test_bundled_config_hashes_unchanged(self):
        assert {name: [chain_config_hash(c) for c in chains] for name, chains in _bundled_chains().items()} == {
            "cascade_6_12.json": ["23e0f5265ca1cbe8", "23e0f5265ca1cbe8"],
            "limit_cycle_coupler.json": ["88a3bb51f35a438e"],
            "limit_cycle_tap.json": ["23e0f5265ca1cbe8"],
            "pulse_response.json": ["23e0f5265ca1cbe8"],
        }
        assert chain_config_hash(ChainConfig()) == "23e0f5265ca1cbe8"


def mixed_chain(seq):
    """A coupler chain with tabled coupling and gain ripple, every sequence built by seq."""
    return ChainConfig(
        coupling_kind="coupler",
        coupler=DirectionalCouplerParams(
            coupling_db=seq([seq([1e9, -15.0]), seq([14e9, -14.0])]), insertion_db=seq([(1e9, 0.8), (14e9, 1.6)])
        ),
        gain_ripple=seq([seq([1e9, -1.0]), seq([14e9, 1.0])]),
    )


class TestOneIdentity:
    """A chain is a value: blocks keep tuples, never the caller's list."""

    def test_lists_and_tuples_make_one_value(self):
        a, b = mixed_chain(list), mixed_chain(tuple)
        assert a == b and hash(a) == hash(b)
        assert a.gain_ripple == ((1e9, -1.0), (14e9, 1.0))
        assert a.coupler.coupling_db == ((1e9, -15.0), (14e9, -14.0))
        assert chain_config_hash(a) == chain_config_hash(b) == "562495cb1ded70c7"

    def test_calibration_cache_keys_on_the_chains_value(self):
        # Equal chains, one built from lists, share a table; another AGC window builds its own.
        a, b = mixed_chain(list), mixed_chain(tuple)
        ctrl = ControllerConfig.for_chain(b)
        cal = get_calibration(a, ctrl)
        assert get_calibration(b, ctrl) is cal and cal.cfg == b
        assert get_calibration(b, replace(ctrl, agc_low_code=ctrl.agc_low_code - 1)) is not cal

    def test_caller_list_changed_after_construction_changes_nothing(self):
        ripple = [[1e9, 0.0], [16e9, 0.0]]
        table = [[1e9, -15.0], [14e9, -15.0]]
        cfg = ChainConfig(
            coupling_kind="coupler", coupler=DirectionalCouplerParams(coupling_db=table), gain_ripple=ripple
        )

        def seen():
            codes = chain_codes_cw(np.array([1e9]), 0.0, 0.0, cfg)
            return (
                hash(cfg), chain_config_hash(cfg), cfg.ripple_db_at(1e9), cfg.coupling_db_at(1e9),
                chain_readout_lines([(1e9, 1e-3)], cfg, 0.0), [c.tolist() for c in codes],
            )

        before = seen()
        ripple[0][1] = 6.0
        table[0] = (1e9, -5.0)
        ripple.append((17e9, 1.0))
        assert seen() == before
        assert cfg == ChainConfig(
            coupling_kind="coupler",
            coupler=DirectionalCouplerParams(coupling_db=((1e9, -15.0), (14e9, -15.0))),
            gain_ripple=((1e9, 0.0), (16e9, 0.0)),
        )

    def test_tuning_range_is_a_tuple(self):
        rng = [1e9, 16e9]
        m = NotchModel(f_tune_range_hz=rng)
        rng[1] = 2e9
        assert m.f_tune_range_hz == (1e9, 16e9) and hash(m) == hash(NotchModel())
        assert tune(m, 8e9, 0.0).f_center_hz == 8e9


class TestOnePassReadout:
    """A readout makes no helper call, below the amplifier ceiling or above it.

    This counts work, like tests/test_engine.py::TestWorkPerRun: the
    detector law, the quantisation, the standing-wave sum and ratio, the
    coupling and the ripple are read inside the readout, not called per
    line or per voltage, and a descriptor is not expanded again. Above the
    ceiling the readout scales its own three sums; tap_rms_voltages is not
    called.
    """

    @pytest.mark.parametrize(
        "cfg",
        [ChainConfig(), ChainConfig(coupling_kind="coupler"), ChainConfig(gain_ripple=((1e9, -1.0), (16e9, 1.0)))],
        ids=["tap", "coupler", "ripple"],
    )
    def test_helper_calls(self, cfg, monkeypatch):
        # The loud tone below drives the amplifier past its ceiling.
        gain_db = cfg.coupling_db_at(8e9) - 0.25 + cfg.amplifier.gain_db + cfg.ripple_db_at(8e9)
        assert dbm_to_watts(25.0) * 10.0 ** (gain_db / 10.0) > cfg._sat_w
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module, name in (
            (swsense.readout, "expand_signal"),
            (swsense.readout, "tap_rms_voltages"),
            (swsense.stub, "wrapped_ratio"),
            (ChainConfig, "coupling_db_at"),
            (ChainConfig, "ripple_db_at"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        cw = SignalDescriptor((Tone(freq_hz=8e9, power_dbm=2.0),))
        comb = SignalDescriptor((Tone(freq_hz=8e9, power_dbm=0.0, occupied_bw_hz=12e6),))
        loud = SignalDescriptor((Tone(freq_hz=8e9, power_dbm=25.0),))
        assert (len(cw.lines), len(comb.lines)) == (1, 31)
        for sig in (cw, comb, loud):
            for read in (chain_readout, chain_voltages):
                calls.clear()
                read(sig, cfg, 0.25)
                assert calls == []
