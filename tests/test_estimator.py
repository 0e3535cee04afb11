"""Estimator and design helpers: resolution law, tap placement, inversion."""

import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import swsense
from swsense.core import SignalDescriptor, Tone
from swsense.coupling import ResistiveTapParams
from swsense.errors import (
    BijectivityError,
    CalibrationRangeError,
    IndeterminateFrequencyError,
    NoSignalError,
    OutOfBandError,
    PlacementInfeasibleError,
    PowerOverrangeError,
)
from swsense.estimator import (
    CONF_CLAMPED,
    CONF_IN_RANGE,
    CONF_SATURATED,
    CalibrationGrid,
    _code_dbm,
    _nearest_row,
    build_calibration,
    estimate,
    estimate_frequency,
    estimate_power,
    load_calibration,
    place_nodes,
    resolution,
    save_calibration,
)
from swsense.readout import (
    AdcParams,
    ChainConfig,
    DetectorParams,
    TapCodes,
    chain_config_hash,
    chain_readout,
)
from swsense.stub import StubParams


class TestResolution:
    def test_midband_anchor(self):
        # lsb / (a pi/(2 ln10 f_max) tan(pi/4)) with the default detector/ADC
        r = resolution(8e9, 16e9, DetectorParams(), AdcParams())
        assert r == pytest.approx(20012577.485, abs=1.0)
        assert r / 8e9 == pytest.approx(0.0025016, abs=1e-6)

    def test_matches_finite_difference(self):
        # one-LSB step recovered by differencing the detector voltage law
        det, adc = DetectorParams(), AdcParams()
        f, f_max = 6e9, 16e9
        v = lambda x: det.slope_a * math.log10(math.cos(math.pi / 2 * x / f_max)) + det.intercept_b
        df = 1e3
        slope = (v(f + df) - v(f - df)) / (2.0 * df)
        assert resolution(f, f_max, det, adc) == pytest.approx(adc.lsb / -slope, rel=1e-6)

    def test_strictly_decreasing(self):
        det, adc = DetectorParams(), AdcParams()
        rs = [resolution(f, 16e9, det, adc) for f in np.linspace(0.5e9, 15.9e9, 60)]
        assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_limits(self):
        det, adc = DetectorParams(), AdcParams()
        assert resolution(0.16e9, 16e9, det, adc) > 50.0 * resolution(8e9, 16e9, det, adc)
        assert resolution(15.98e9, 16e9, det, adc) < 1e5
        with pytest.raises(BijectivityError):
            resolution(0.0, 16e9, det, adc)
        with pytest.raises(BijectivityError):
            resolution(16e9, 16e9, det, adc)


class TestPlaceNodes:
    def test_quarter_percent_design(self):
        f2, f_min = place_nodes(16e9, 0.0025)
        # each crossing is bisected to 1 Hz
        assert f2 == pytest.approx(8001956457.04, abs=1.0)
        assert f_min == pytest.approx(4001956696.51, abs=1.0)
        # crossings are self-consistent with the resolution law
        det, adc = DetectorParams(), AdcParams()
        assert resolution(f2, 16e9, det, adc) / f2 == pytest.approx(0.0025, rel=1e-9)
        assert resolution(f_min, f2, det, adc) / f_min == pytest.approx(0.0025, rel=1e-9)

    def test_runs_without_scipy(self):
        """The package imports and designs a stub with scipy hidden from the interpreter."""
        package_root = str(Path(swsense.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        body = (
            "import sys; sys.modules['scipy'] = None; import swsense.cli; "
            "from swsense import place_nodes, tap_length; "
            "f2, f_min = place_nodes(16e9, 0.0025); print(f2, f_min, tap_length(f2))"
        )
        out = subprocess.run([sys.executable, "-c", body], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        f2, f_min, length = map(float, out.stdout.split())
        assert (f2, f_min) == place_nodes(16e9, 0.0025)
        assert length == pytest.approx(299792458.0 / (4.0 * f2), rel=1e-12)

    def test_tighter_bound_moves_crossings_up(self):
        loose, _ = place_nodes(16e9, 0.004)
        tight, _ = place_nodes(16e9, 0.002)
        assert tight > loose

    def test_infeasible_bounds(self):
        with pytest.raises(PlacementInfeasibleError):
            place_nodes(16e9, 1.5)
        with pytest.raises(PlacementInfeasibleError):
            place_nodes(-1.0, 0.0025)

    @pytest.mark.parametrize("f_max", [math.nan, math.inf])
    def test_non_finite_first_tap_refused(self, f_max):
        with pytest.raises(PlacementInfeasibleError, match="f_max_1_hz must be positive and finite"):
            place_nodes(f_max, 0.0025)


class TestCalibrationBuild:
    def test_grid_arrays(self):
        g = CalibrationGrid()
        f = g.freqs()
        p = g.powers()
        assert len(f) == 151 and f[0] == 1e9 and f[-1] == 16e9
        assert len(p) == 41 and p[0] == -20.0 and p[-1] == 20.0

    @pytest.mark.parametrize(
        "fields, match",
        [
            (dict(f_step_hz=0.0), "frequency sweep"),
            (dict(f_step_hz=-1e8), "frequency sweep"),
            (dict(f_step_hz=math.inf), "frequency sweep"),
            (dict(p_step_dbm=0.0), "power sweep"),
            (dict(p_start_dbm=10.0, p_stop_dbm=-10.0), "power sweep"),
            (dict(f_start_hz=5e9, f_stop_hz=2e9), "frequency sweep"),
            (dict(f_start_hz=math.nan), "frequency sweep"),
            (dict(f_stop_hz=math.inf), "frequency sweep"),
            (dict(p_stop_dbm=math.nan), "power sweep"),
            (dict(f_start_hz=0.0), "above 0 Hz"),
            (dict(f_start_hz=-1e9), "above 0 Hz"),
        ],
    )
    def test_grid_enforces_its_domain(self, fields, match):
        with pytest.raises(ValueError, match=match):
            CalibrationGrid(**fields)

    @pytest.mark.parametrize(
        "fields, freqs_tail, powers_tail",
        [
            (dict(f_step_hz=0.4e9), [15.4e9, 15.8e9, 16e9], [18.0, 19.0, 20.0]),
            (dict(f_step_hz=0.7e9), [15e9, 15.7e9, 16e9], [18.0, 19.0, 20.0]),
            (dict(f_stop_hz=16.16e9), [16e9, 16.1e9, 16.16e9], [18.0, 19.0, 20.0]),
            (dict(p_step_dbm=3.0), [15.8e9, 15.9e9, 16e9], [16.0, 19.0, 20.0]),
            # 40 dB is 400 steps of 0.1 dB within rounding: no extra point.
            (dict(p_step_dbm=0.1), [15.8e9, 15.9e9, 16e9], [19.800000000000004, 19.900000000000006, 20.0]),
        ],
    )
    def test_grid_ends_on_its_stop(self, fields, freqs_tail, powers_tail):
        g = CalibrationGrid(**fields)
        for axis, tail, step in ((g.freqs(), freqs_tail, g.f_step_hz), (g.powers(), powers_tail, g.p_step_dbm)):
            assert axis[-3:].tolist() == tail
            *steps, last = np.diff(axis)
            assert steps == pytest.approx([step] * len(steps)) and 0.0 < last <= step * (1 + 1e-9)

    def test_single_cell_grid_is_in_domain(self):
        g = CalibrationGrid(6e9, 6e9, 1e9, 0.0, 0.0, 1.0)
        assert list(g.freqs()) == [6e9] and list(g.powers()) == [0.0]

    def test_table_shape_and_metadata(self, chain, calibration):
        cal = calibration
        assert cal.code_oc.shape == (151, 41)
        # The chain is the table's one identity; no hash rides along with it.
        assert cal.cfg is chain
        assert "config_hash" not in {f.name for f in fields(cal)}

    def test_agc_holds_codes_in_window(self, calibration, controller):
        # wherever attenuation is active the open-end code sits in the window
        active = calibration.att_db > 0.0
        assert np.all(calibration.code_oc[active] <= controller.agc_high_code)
        assert np.all(calibration.code_oc[active] >= controller.agc_low_code)

    def test_coarse_tap_floors_at_its_null(self, chain, calibration):
        floor = chain.floor_code
        assert np.all(calibration.code_l1[-1, :] == floor)  # 16 GHz row
        assert np.all(calibration.code_oc > floor)

    def test_unservable_grids_raise(self, chain):
        quiet = CalibrationGrid(6e9, 7e9, 0.5e9, -60.0, -60.0, 1.0)
        with pytest.raises(CalibrationRangeError):
            build_calibration(chain, quiet)
        loud = CalibrationGrid(6e9, 7e9, 0.5e9, 45.0, 45.0, 1.0)
        with pytest.raises(CalibrationRangeError):
            build_calibration(chain, loud)

    @pytest.mark.parametrize("arg", ["cfg", "grid", "ctrl"])
    def test_arguments_outside_their_domain_raise(self, chain, arg):
        args = {"cfg": chain, "grid": None, "ctrl": None, arg: "x"}
        with pytest.raises(ValueError, match=f"^{arg} must be"):
            build_calibration(**args)

    def test_grid_above_the_stub_band_raises(self, chain):
        # The default grid's top row sits exactly at tap l1's f_max and builds.
        with pytest.raises(CalibrationRangeError, match="16.500 GHz above the stub band"):
            build_calibration(chain, CalibrationGrid(15e9, 17e9, 0.5e9, 0.0, 0.0, 1.0))


def _cell_codes(cal, i, j):
    return TapCodes(
        t_s=0.0,
        code_oc=int(cal.code_oc[i, j]),
        code_l1=int(cal.code_l1[i, j]),
        code_l2=int(cal.code_l2[i, j]),
        att_db=float(cal.att_db[i, j]),
    )


class TestEstimation:
    def test_grid_round_trip(self, calibration):
        for f_ghz, tap in ((2.0, "l2"), (6.0, "l1"), (11.0, "l1")):
            i = int(round((f_ghz * 1e9 - 1e9) / 0.1e9))
            for p in (-10.0, 0.0, 7.0):
                j = int(round(p + 20.0))
                est = estimate(_cell_codes(calibration, i, j), calibration)
                assert est.freq_hz == pytest.approx(f_ghz * 1e9, abs=1.0)
                assert est.power_dbm == pytest.approx(p, abs=1e-9)
                assert est.tap_used == tap
                assert est.confidence == CONF_IN_RANGE

    def test_off_grid_round_trip(self, chain, calibration):
        # accuracy is limited by code quantization: about one code, i.e.
        # the local resolution of whichever tap answers
        for f, p in ((6.453e9, -3.7), (9.781e9, 2.2), (3.233e9, -8.9)):
            sig = SignalDescriptor((Tone(freq_hz=f, power_dbm=p),))
            est = estimate(chain_readout(sig, chain, 0.0), calibration)
            f_max = 16e9 if est.tap_used == "l1" else 5e9
            tol = 1.5 * resolution(f, f_max, chain.detector, chain.adc)
            assert est.freq_hz == pytest.approx(f, abs=tol)
            assert est.power_dbm == pytest.approx(p, abs=0.1)

    def test_attenuation_bookkeeping(self, chain, calibration):
        # +10 dB input with +10 dB attenuation gives identical codes;
        # the power estimate must differ by exactly the attenuator step
        a = chain_readout(SignalDescriptor((Tone(freq_hz=8e9, power_dbm=-5.0),)), chain, 0.0)
        b = chain_readout(SignalDescriptor((Tone(freq_hz=8e9, power_dbm=5.0),)), chain, 10.0)
        assert (a.code_oc, a.code_l1, a.code_l2) == (b.code_oc, b.code_l1, b.code_l2)
        assert estimate_frequency(a, calibration) == estimate_frequency(b, calibration)
        pa = estimate_power(a, 8e9, calibration)
        pb = estimate_power(b, 8e9, calibration)
        # the compensated level shifts by exactly 10 dB; the answers land on
        # different table segments so they differ by 10 dB only to within
        # the segment slope mismatch
        assert pb - pa == pytest.approx(10.0, abs=0.01)

    def test_power_monotone_and_accurate(self, chain, calibration):
        ests = []
        for p in np.arange(-20.0, 0.1, 0.5):
            codes = chain_readout(
                SignalDescriptor((Tone(freq_hz=8e9, power_dbm=float(p)),)), chain, 0.0
            )
            e = estimate_power(codes, 8e9, calibration)
            assert e == pytest.approx(p, abs=0.1)
            ests.append(e)
        assert all(b >= a for a, b in zip(ests, ests[1:]))

    def test_power_extrapolates_past_grid_edges(self, chain, calibration):
        low = chain_readout(
            SignalDescriptor((Tone(freq_hz=8e9, power_dbm=-24.0),)), chain, 0.0
        )
        assert estimate_power(low, 8e9, calibration) == pytest.approx(-24.0, abs=0.3)
        high = chain_readout(
            SignalDescriptor((Tone(freq_hz=8e9, power_dbm=24.0),)), chain, 24.0
        )
        assert estimate_power(high, 8e9, calibration) == pytest.approx(24.0, abs=0.3)

    def test_tap_handoff_around_switch(self, chain, calibration):
        def est_at(f):
            sig = SignalDescriptor((Tone(freq_hz=f, power_dbm=0.0),))
            return estimate(chain_readout(sig, chain, 0.0), calibration)

        below = est_at(4.9e9)
        at = est_at(5.0e9)
        above = est_at(5.1e9)
        assert below.tap_used == "l2"
        assert at.tap_used == "l1"
        assert above.tap_used == "l1"
        assert below.freq_hz < at.freq_hz < above.freq_hz
        assert above.freq_hz - below.freq_hz < 0.25e9

    def test_low_band_uses_fine_tap(self, chain, calibration):
        sig = SignalDescriptor((Tone(freq_hz=2e9, power_dbm=0.0),))
        est = estimate(chain_readout(sig, chain, 0.0), calibration)
        assert est.tap_used == "l2"
        assert est.freq_hz == pytest.approx(2e9, abs=10e6)

    def test_saturated_open_end_flagged(self, chain, calibration):
        codes = chain_readout(SignalDescriptor((Tone(freq_hz=8e9, power_dbm=3.0),)), chain, 0.0)
        assert codes.code_oc >= chain.ceiling_code
        est = estimate(codes, calibration)
        assert est.confidence == CONF_SATURATED

    def test_no_signal_raises(self, chain, calibration):
        floor = chain.floor_code
        codes = TapCodes(0.0, floor, floor, floor, 0.0)
        with pytest.raises(NoSignalError):
            estimate_frequency(codes, calibration)
        with pytest.raises(NoSignalError):
            estimate_power(codes, 8e9, calibration)

    def test_both_taps_saturated_indeterminate(self, chain, calibration):
        ceil = chain.ceiling_code
        codes = TapCodes(0.0, ceil, ceil, ceil, 0.0)
        with pytest.raises(IndeterminateFrequencyError):
            estimate_frequency(codes, calibration)

    def test_overrange_power_raises(self, chain, calibration):
        ceil = chain.ceiling_code
        codes = TapCodes(0.0, ceil, 2000, 2000, chain.attenuator.max_db)
        with pytest.raises(PowerOverrangeError):
            estimate_power(codes, 8e9, calibration)

    def test_fine_tap_floor_still_answers_from_fine_tap(self, chain, calibration):
        # synthesize a reading whose fine tap sits at the detector floor
        # near its null: the coarse tap places the tone below the switch
        # point, so the answer must still come from the fine tap, flagged
        # clamped, with the floored code bounding the ratio from above
        floor = chain.floor_code
        i = int(round((4.8e9 - 1e9) / 0.1e9))
        j = 20
        codes = TapCodes(
            0.0,
            int(calibration.code_oc[i, j]),
            int(calibration.code_l1[i, j]),
            floor,
            float(calibration.att_db[i, j]),
        )
        f, tap, conf = estimate_frequency(codes, calibration)
        assert tap == "l2"
        assert conf == CONF_CLAMPED
        assert 4.3e9 <= f < 5e9


class TestDegeneratePowerRows:
    """Grids CalibrationGrid accepts whose rows have equal levels at an edge."""

    def test_flat_first_segment_extrapolates_from_the_first_differing_column(self, chain):
        # A power step finer than one ADC code: every row's first two columns share a level.
        cal = build_calibration(chain, CalibrationGrid(7e9, 9e9, 0.1e9, -5.0, -4.9, 0.01))
        assert np.all(cal.stub_level[:, 0] == cal.stub_level[:, 1])
        for p_dbm in (-10.0, -5.0):
            codes = chain_readout(SignalDescriptor((Tone(freq_hz=8e9, power_dbm=p_dbm),)), chain, 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = estimate(codes, cal)
            assert est.confidence == CONF_IN_RANGE
            assert math.isfinite(est.power_dbm)
            assert est.power_dbm == pytest.approx(p_dbm, abs=1.0)

    def test_single_column_table_raises(self, chain):
        cal = build_calibration(chain, CalibrationGrid(7e9, 9e9, 0.1e9, 0.0, 0.0, 1.0))
        codes = _cell_codes(cal, 10, 0)
        with pytest.raises(CalibrationRangeError, match="row at 8.00 GHz has a single stub level"):
            estimate(codes, cal)
        with pytest.raises(CalibrationRangeError, match="row at 8.00 GHz"):
            estimate_power(codes, 8e9, cal)


class TestTableState:
    ARRAYS = ("freqs_hz", "powers_dbm", "att_db", "code_oc", "code_l1", "code_l2", "stub_level")

    @pytest.mark.parametrize("name", ARRAYS)
    def test_arrays_are_read_only(self, calibration, name):
        a = getattr(calibration, name)
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]

    def test_replace_starts_with_empty_fronts(self, chain, calibration):
        codes = chain_readout(SignalDescriptor((Tone(freq_hz=3e9, power_dbm=0.0),)), chain, 0.0)
        est = estimate(codes, calibration)
        assert any(calibration.fronts) and calibration.shared_fronts
        new = replace(calibration)
        assert new.fronts == ({}, {}) and new.shared_fronts == {}
        assert estimate(codes, new) == est
        assert new.fronts[1].keys() == {codes.code_oc}
        assert new.shared_fronts is not calibration.shared_fronts

    @pytest.mark.parametrize("name", ["code_oc", "code_l1", "code_l2"])
    def test_codes_that_are_not_integers_are_refused(self, calibration, name):
        # In range but float: a code is an ADC code, and a table converts
        # its open-end codes to stub levels one by one.
        codes = getattr(calibration, name).astype(float)
        with pytest.raises(ValueError, match=r"^calibration codes must be an integer array, got dtype float64$"):
            replace(calibration, **{name: codes})

    def test_code_dbm_holds_the_grid_codes_then_those_read(self, chain, calibration):
        # The grid's open-end codes are converted when the table is made;
        # a reading's other code is converted once, when it is read.
        table = replace(calibration)
        assert list(table.code_dbm) == np.unique(table.code_oc).tolist()
        codes = TapCodes(0.0, 2900, 2788, 2857, 0.0)
        assert 2900 not in table.code_dbm
        p = estimate_power(codes, 8e9, table)
        assert table.code_dbm[2900] == _code_dbm(2900, chain)
        assert estimate_power(codes, 8e9, table) == p
        assert list(pickle.loads(pickle.dumps(table)).code_dbm) == np.unique(table.code_oc).tolist()

    def test_nearest_row_matches_argmin(self, calibration, small_cal):
        for cal in (calibration, small_cal):
            f = cal.freqs_hz
            mids = (f[:-1] + f[1:]) / 2.0
            probes = np.concatenate([f, mids])
            probes = np.concatenate([probes, np.nextafter(probes, -np.inf), np.nextafter(probes, np.inf)])
            extra = [0.0, -1.0, 1e30, -1e30, math.inf, -math.inf, math.nan, 1e9 - 0.05e9, 16.05e9]
            for x in [*probes.tolist(), *extra]:
                assert _nearest_row(cal.freqs_list, x) == int(np.abs(f - x).argmin()), x

    def test_nearest_row_far_above_takes_the_first_equal_row(self):
        # Rounding makes every distance 1e300, and argmin keeps the first.
        assert _nearest_row([1.0, 2.0, 3.0], 1e300) == int(np.abs(np.array([1.0, 2.0, 3.0]) - 1e300).argmin()) == 0


class TestInputDomain:
    def test_fine_tap_equal_to_open_end_reads_zero_hz(self, calibration):
        # A fine-tap code equal to the open-end code means a voltage ratio of
        # exactly 1, which inverts to 0 Hz, below the calibrated band, yet the
        # answer is flagged in-range. Pinned as it stands.
        est = estimate(TapCodes(0.0, 2965, 2965, 2965, 0.0), calibration)
        assert (est.freq_hz, est.tap_used, est.confidence) == (0.0, "l2", CONF_IN_RANGE)

    @pytest.mark.parametrize(
        "codes, match",
        [
            (TapCodes(0.0, 99999, -5, 0, 0.0), "code_oc=99999"),
            (TapCodes(0.0, 2965, -5, 2857, 0.0), "code_l1=-5"),
            (TapCodes(0.0, 2965, 2788, 4096, 0.0), "code_l2=4096"),
            (TapCodes(0.0, 2965.0, 2788, 2857, 0.0), "code_oc=2965.0"),
            (TapCodes(0.0, 2965, 2788, 2857, 0.3), "att_db=0.3"),
            (TapCodes(0.0, 2965, 2788, 2857, -4.0), "att_db=-4.0"),
            (TapCodes(0.0, 2965, 2788, 2857, 32.0), "att_db=32.0"),
        ],
    )
    def test_out_of_domain_acquisition_raises(self, calibration, codes, match):
        # Checked before any table lookup: -5 must not read entry 4091.
        for call in (
            lambda: estimate(codes, calibration),
            lambda: estimate_frequency(codes, calibration),
            lambda: estimate_power(codes, 8e9, calibration),
        ):
            with pytest.raises(ValueError, match=match):
                call()

    def test_estimate_checks_its_codes_once(self, chain, calibration, monkeypatch):
        import swsense.estimator as estimator_mod

        checked = []
        check = estimator_mod.check_codes
        monkeypatch.setattr(estimator_mod, "check_codes", lambda codes, cfg: checked.append(codes) or check(codes, cfg))
        codes = chain_readout(SignalDescriptor((Tone(freq_hz=6e9, power_dbm=-5.0),)), chain, 0.0)
        est = estimate(codes, calibration)
        assert len(checked) == 1
        assert estimate_frequency(codes, calibration) == (est.freq_hz, est.tap_used, est.confidence)
        assert estimate_power(codes, est.freq_hz, calibration) == est.power_dbm
        assert len(checked) == 3

    # A 5-7 GHz table, where every one of these frequencies used to answer
    # 0.0 dBm from its first row without an error.
    @pytest.mark.parametrize("freq_hz", [math.nan, -5e9, 0.0, -0.0, math.inf, -math.inf])
    def test_power_refuses_a_frequency_that_is_not_positive_and_finite(self, small_cal, freq_hz):
        with pytest.raises(ValueError, match=rf"^freq_hz={re.escape(repr(freq_hz))} is not positive and finite$"):
            estimate_power(TapCodes(0.0, 2965, 2788, 2857, 0.0), freq_hz, small_cal)

    @pytest.mark.parametrize("freq_hz", [16.5e9, 1e30])
    def test_power_refuses_a_frequency_above_the_stub_band(self, small_cal, freq_hz):
        with pytest.raises(OutOfBandError, match="above the stub band"):
            estimate_power(TapCodes(0.0, 2965, 2788, 2857, 0.0), freq_hz, small_cal)

    def test_power_frequency_checked_after_the_codes(self, small_cal):
        with pytest.raises(ValueError, match="code_oc=99999"):
            estimate_power(TapCodes(0.0, 99999, 2788, 2857, 0.0), math.nan, small_cal)

    @pytest.mark.parametrize("freq_hz", [5e-324, 6e9, 16e9])
    def test_power_accepts_the_frequency_domain_edges(self, small_cal, freq_hz):
        assert estimate_power(TapCodes(0.0, 2965, 2788, 2857, 0.0), freq_hz, small_cal) == 0.0

    # Each of these used to answer -1.525 dBm, read off an edge row of the table.
    @pytest.mark.parametrize("freq_hz", [0.5e9, 14.5e9, 15.9e9])
    def test_power_refuses_a_frequency_outside_the_coupler_band(self, freq_hz):
        cal = build_calibration(ChainConfig(coupling_kind="coupler"), CalibrationGrid(5e9, 7e9, 1e9, -5.0, 5.0, 5.0))
        with pytest.raises(OutOfBandError, match=r"outside coupler band \[1\.000, 14\.000\] GHz$"):
            estimate_power(TapCodes(0.0, 2900, 2800, 2700, 0.0), freq_hz, cal)

    def test_range_edges_are_in_domain(self, chain, calibration):
        full = chain.adc.full_code
        with pytest.raises(NoSignalError):
            estimate(TapCodes(0.0, 0, 0, 0, 0.0), calibration)
        assert estimate(TapCodes(0.0, full, 2000, 2000, 31.5), calibration).confidence == CONF_SATURATED


@given(st.integers(min_value=-15, max_value=10))
def test_frequency_estimate_power_invariant(chain, calibration, p_dbm):
    # the frequency answer must not depend on drive level (within AGC range)
    att = max(0.0, min(31.75, math.floor((p_dbm + 2.0) * 4.0) / 4.0))
    codes = chain_readout(
        SignalDescriptor((Tone(freq_hz=7.3e9, power_dbm=float(p_dbm)),)), chain, att
    )
    f, tap, conf = estimate_frequency(codes, calibration)
    assert tap == "l1"
    assert f == pytest.approx(7.3e9, abs=15e6)


@pytest.fixture(scope="module")
def small_cal(chain):
    grid = CalibrationGrid(5e9, 7e9, 1e9, -5.0, 5.0, 5.0)
    return build_calibration(chain, grid)


class TestPersistence:
    def test_round_trip(self, tmp_path, small_cal):
        csv_p, hdr_p = tmp_path / "cal.csv", tmp_path / "cal.json"
        save_calibration(small_cal, str(csv_p), str(hdr_p))
        back = load_calibration(str(csv_p), str(hdr_p))
        assert np.array_equal(back.code_oc, small_cal.code_oc)
        assert np.array_equal(back.code_l1, small_cal.code_l1)
        assert np.array_equal(back.code_l2, small_cal.code_l2)
        assert np.allclose(back.att_db, small_cal.att_db)
        assert back.cfg == small_cal.cfg
        assert json.loads(hdr_p.read_text())["config_hash"] == chain_config_hash(small_cal.cfg)
        # The loaded table derives the same inverse as the built one.
        codes = _cell_codes(small_cal, 1, 1)
        assert estimate(codes, back) == estimate(codes, small_cal)

    def test_header_hash_mismatch_rejected(self, tmp_path, small_cal):
        csv_p, hdr_p = tmp_path / "cal.csv", tmp_path / "cal.json"
        save_calibration(small_cal, str(csv_p), str(hdr_p))
        hdr = json.loads(hdr_p.read_text())
        hdr["chain"]["adc"]["bits"] = 10
        hdr_p.write_text(json.dumps(hdr))
        with pytest.raises(ValueError):
            load_calibration(str(csv_p), str(hdr_p))

    def test_codes_outside_adc_range_rejected(self, tmp_path, small_cal):
        csv_p, hdr_p = tmp_path / "cal.csv", tmp_path / "cal.json"
        save_calibration(small_cal, str(csv_p), str(hdr_p))
        lines = csv_p.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "5000"
        csv_p.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match="ADC range"):
            load_calibration(str(csv_p), str(hdr_p))

    def test_descending_frequencies_rejected(self, tmp_path, small_cal):
        csv_p, hdr_p = tmp_path / "cal.csv", tmp_path / "cal.json"
        save_calibration(small_cal, str(csv_p), str(hdr_p))
        hdr = json.loads(hdr_p.read_text())
        hdr["freqs_hz"].reverse()
        hdr_p.write_text(json.dumps(hdr))
        # The CSV's blocks of rows, one block per frequency, reversed with the header.
        column_row, *rows = csv_p.read_text().splitlines()
        n = len(hdr["powers_dbm"])
        blocks = [rows[i : i + n] for i in range(0, len(rows), n)]
        csv_p.write_text("\n".join([column_row, *sum(reversed(blocks), [])]) + "\n")
        with pytest.raises(ValueError, match="ascending"):
            load_calibration(str(csv_p), str(hdr_p))

    @pytest.mark.parametrize(
        "cfg",
        [ChainConfig(tap=ResistiveTapParams(r_c=220)), ChainConfig(stub=StubParams(z0s=50))],
        ids=["r_c=220", "z0s=50"],
    )
    def test_chain_with_int_values_loads_back(self, tmp_path, cfg):
        # Equal to the default chain by value, so its header's hash is the default's.
        assert cfg == ChainConfig() and chain_config_hash(cfg) == chain_config_hash(ChainConfig())
        cal = build_calibration(cfg, CalibrationGrid(5e9, 7e9, 1e9, -5.0, 5.0, 5.0))
        csv_p, hdr_p = tmp_path / "cal.csv", tmp_path / "cal.json"
        save_calibration(cal, str(csv_p), str(hdr_p))
        back = load_calibration(str(csv_p), str(hdr_p))
        assert back.cfg == cal.cfg
        for name in ("freqs_hz", "powers_dbm", "att_db", "code_oc", "code_l1", "code_l2"):
            assert np.array_equal(getattr(back, name), getattr(cal, name))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h, rows: ({k: v for k, v in h.items() if k != "freqs_hz"}, rows), r"^header: missing key 'freqs_hz'$"),
            (lambda h, rows: (list(h), rows), r"^header: expected an object, got list$"),
            (lambda h, rows: ({**h, "grid": "5-7 GHz"}, rows), r"^header: unknown key 'grid'$"),
            (lambda h, rows: ({**h, "config_hash": 7}, rows), r"^config_hash: expected str, got int$"),
            (lambda h, rows: (h, rows[1:]), r"^calibration CSV line 1 must be freq_hz,power_dbm,att_db,code_oc,code_l1,code_l2$"),
            (
                lambda h, rows: (h, [rows[0], ["7100000000.0", *rows[1][1:]], *rows[2:]]),
                r"^calibration CSV line 2: \(7100000000\.0 Hz, -5\.0 dBm\) is not grid cell \(5000000000\.0 Hz, -5\.0 dBm\)$",
            ),
            (lambda h, rows: (h, [rows[0], rows[1][:5], *rows[2:]]), r"^calibration CSV line 2: expected 6 cells, got 5$"),
            (
                lambda h, rows: (h, [rows[0], [*rows[1][:3], "x", *rows[1][4:]], *rows[2:]]),
                r"^calibration CSV line 2: invalid literal for int\(\) with base 10: 'x'$",
            ),
            (
                lambda h, rows: (h, [rows[0], [*rows[1][:3], "9" * 20, *rows[1][4:]], *rows[2:]]),
                r"^calibration codes outside the ADC range \[0, 4095\]$",
            ),
            (
                lambda h, rows: (h, [rows[0], [*rows[1][:2], "0.3", *rows[1][3:]], *rows[2:]]),
                r"^calibration CSV line 2: att_db=0\.3 is not a multiple of 0\.25",
            ),
            (
                lambda h, rows: (h, [rows[0], rows[2], rows[1], *rows[3:]]),
                r"^calibration CSV line 2: \(5000000000\.0 Hz, 0\.0 dBm\) is not grid cell \(5000000000\.0 Hz, -5\.0 dBm\)$",
            ),
            (lambda h, rows: (h, rows[:-1]), r"^calibration CSV has 8 rows for the 9 cells of its header's grid$"),
            (lambda h, rows: (h, [*rows, rows[-1]]), r"^calibration CSV has 10 rows for the 9 cells of its header's grid$"),
        ],
        ids=[
            "header-missing-key", "header-list", "header-unknown-key", "header-mistyped-key", "no-column-row",
            "row-off-grid", "short-row", "code-not-a-number", "code-past-int64", "att-not-a-setting", "rows-out-of-order",
            "missing-row", "extra-row",
        ],
    )
    def test_malformed_file_is_a_value_error(self, tmp_path, small_cal, edit, message):
        csv_p, hdr_p = tmp_path / "cal.csv", tmp_path / "cal.json"
        save_calibration(small_cal, str(csv_p), str(hdr_p))
        rows = [line.split(",") for line in csv_p.read_text().splitlines()]
        hdr, rows = edit(json.loads(hdr_p.read_text()), rows)
        hdr_p.write_text(json.dumps(hdr))
        csv_p.write_text("".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match=message):
            load_calibration(str(csv_p), str(hdr_p))

    def test_empty_table_rejected(self, small_cal):
        empty = np.zeros((0, len(small_cal.powers_dbm)), dtype=int)
        with pytest.raises(ValueError, match="at least one frequency and one power"):
            replace(small_cal, freqs_hz=np.array([]), att_db=empty.astype(float),
                    code_oc=empty, code_l1=empty, code_l2=empty)

    def test_incomplete_csv_rejected(self, tmp_path, small_cal):
        csv_p, hdr_p = tmp_path / "cal.csv", tmp_path / "cal.json"
        save_calibration(small_cal, str(csv_p), str(hdr_p))
        lines = csv_p.read_text().splitlines()
        csv_p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_calibration(str(csv_p), str(hdr_p))
