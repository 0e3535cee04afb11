"""Tunable notch model: profile shape, compression, transitions."""

import math

import pytest
from hypothesis import given, strategies as st

from swsense.errors import TuningRangeError
from swsense.filters import (
    MIN_DEPTH_DB,
    FilterState,
    NotchModel,
    effective_depth_db,
    notch_s21_db,
    release,
    stopband_gamma,
    tune,
)


ABSORPTIVE = NotchModel(reflective=False)


def engaged_at(f_center, t=0.0):
    return FilterState(engaged=True, f_center_hz=f_center, transition_until_s=t)


class TestProfile:
    def test_center_hits_full_depth(self):
        m = NotchModel(depth_db=30.0)
        assert notch_s21_db(m, engaged_at(6e9), 6e9, 0.0, 1e-6) == pytest.approx(-30.0)

    def test_half_depth_at_half_bandwidth(self):
        m = NotchModel(depth_db=30.0, bw_3db_hz=100e6)
        s = notch_s21_db(m, engaged_at(6e9), 6e9 + 50e6, 0.0, 1e-6)
        assert s == pytest.approx(-15.0)

    def test_skirt_rolls_off_symmetrically(self):
        m = NotchModel(depth_db=30.0, bw_3db_hz=100e6)
        st_ = engaged_at(6e9)
        lo = notch_s21_db(m, st_, 6e9 - 300e6, 0.0, 1e-6)
        hi = notch_s21_db(m, st_, 6e9 + 300e6, 0.0, 1e-6)
        assert lo == pytest.approx(hi)
        assert -1.0 < lo < 0.0

    def test_disengaged_transparent(self):
        m = NotchModel()
        assert notch_s21_db(m, FilterState(), 6e9, 0.0, 0.0) == 0.0
        assert stopband_gamma(m, FilterState(), 6e9, 0.0, 0.0) == 0.0


class TestCompression:
    def test_below_knee_full_depth(self):
        m = NotchModel(depth_db=30.0, power_knee_dbm=10.0, depth_slope_db_per_db=1.5)
        assert effective_depth_db(m, 10.0) == pytest.approx(30.0)
        assert effective_depth_db(m, -20.0) == pytest.approx(30.0)

    def test_compression_slope(self):
        m = NotchModel(depth_db=30.0, power_knee_dbm=10.0, depth_slope_db_per_db=1.5)
        # 10 dB over the knee costs 15 dB of depth
        assert effective_depth_db(m, 20.0) == pytest.approx(15.0)

    def test_depth_floor(self):
        m = NotchModel(depth_db=30.0, power_knee_dbm=10.0, depth_slope_db_per_db=1.5)
        assert effective_depth_db(m, 60.0) == pytest.approx(MIN_DEPTH_DB)

    def test_yig_depth_is_power_independent(self):
        m = NotchModel.yig()
        assert m.tuning_time_s == pytest.approx(100e-6)
        s_cold = notch_s21_db(m, engaged_at(6e9), 6e9, -20.0, 1e-3)
        s_hot = notch_s21_db(m, engaged_at(6e9), 6e9, 40.0, 1e-3)
        assert s_cold == s_hot == pytest.approx(-40.0)

    def test_yig_factory_overrides(self):
        m = NotchModel.yig(bw_3db_hz=500e6, reflective=False)
        assert m.kind == "yig"
        assert m.bw_3db_hz == 500e6
        assert not m.reflective


class TestReflection:
    def test_energy_identity_when_reflective(self):
        m = NotchModel(depth_db=30.0, reflective=True)
        st_ = engaged_at(6e9)
        for df in (0.0, 30e6, 80e6, 400e6):
            s21 = 10.0 ** (notch_s21_db(m, st_, 6e9 + df, 0.0, 1e-6) / 20.0)
            g = stopband_gamma(m, st_, 6e9 + df, 0.0, 1e-6)
            assert s21 * s21 + g * g == pytest.approx(1.0, abs=1e-12)

    def test_deep_notch_reflects_nearly_everything(self):
        m = NotchModel(depth_db=40.0, reflective=True)
        g = stopband_gamma(m, engaged_at(6e9), 6e9, 0.0, 1e-6)
        assert g == pytest.approx(math.sqrt(1.0 - 1e-4), rel=1e-9)

    def test_absorptive_notch_never_reflects(self):
        m = NotchModel(depth_db=40.0, reflective=False)
        assert stopband_gamma(m, engaged_at(6e9), 6e9, 0.0, 1e-6) == 0.0


class TestTransitions:
    def test_tune_sets_transition_window(self):
        m = NotchModel(tuning_time_s=50e-9)
        st_ = tune(m, 6e9, t_s=1e-6)
        assert st_.engaged
        assert st_.f_center_hz == 6e9
        assert st_.in_transition(1e-6 + 49e-9)
        assert not st_.in_transition(1e-6 + 50e-9)

    def test_transparent_during_transition(self):
        m = NotchModel(depth_db=30.0, tuning_time_s=50e-9)
        st_ = tune(m, 6e9, t_s=0.0)
        assert notch_s21_db(m, st_, 6e9, 0.0, 25e-9) == 0.0
        assert stopband_gamma(m, st_, 6e9, 0.0, 25e-9) == 0.0
        assert notch_s21_db(m, st_, 6e9, 0.0, 60e-9) == pytest.approx(-30.0)

    def test_retune_restarts_clock(self):
        m = NotchModel(tuning_time_s=50e-9)
        st_ = tune(m, 7e9, t_s=40e-9)  # a retune is a tune at its own time, whatever the notch was doing
        assert st_.in_transition(80e-9)
        assert not st_.in_transition(90e-9)

    def test_release_is_immediate(self):
        m = NotchModel()
        st_ = release(tune(m, 6e9, t_s=0.0))
        assert not st_.engaged
        assert notch_s21_db(m, st_, 6e9, 0.0, 1e-3) == 0.0

    def test_tuning_range_enforced(self):
        m = NotchModel(f_tune_range_hz=(1e9, 16e9))
        with pytest.raises(TuningRangeError):
            tune(m, 0.5e9, t_s=0.0)
        with pytest.raises(TuningRangeError):
            tune(m, 17e9, t_s=0.0)

    @pytest.mark.parametrize("t_s", [math.nan, math.inf, -math.inf])
    def test_time_that_is_not_finite_is_refused(self, t_s):
        # A NaN start once gave an engaged notch whose transition never ended.
        with pytest.raises(ValueError, match=rf"^t_s={t_s!r} is not a finite time$"):
            tune(NotchModel(), 6e9, t_s=t_s)


class TestCascade:
    def test_two_stage_depth_adds_in_db(self):
        m = NotchModel(depth_db=30.0)
        st_ = engaged_at(6e9)
        one = notch_s21_db(m, st_, 6e9, 0.0, 1e-6)
        assert 2.0 * one == pytest.approx(-60.0)


@given(st.floats(min_value=1e9, max_value=16e9), st.floats(min_value=-40.0, max_value=40.0))
def test_s21_always_nonpositive(f_hz, p_dbm):
    m = NotchModel()
    s = notch_s21_db(m, engaged_at(8e9), f_hz, p_dbm, 1e-6)
    assert s <= 0.0
    g = stopband_gamma(m, engaged_at(8e9), f_hz, p_dbm, 1e-6)
    assert 0.0 <= g <= 1.0


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"depth_db": math.nan}, r"^depth_db must be positive and finite, got nan$"),
        ({"bw_3db_hz": math.inf}, r"^bw_3db_hz must be positive and finite, got inf$"),
        ({"tuning_time_s": math.nan}, r"^tuning_time_s must be >= 0 and finite, got nan$"),
        ({"tuning_time_s": -1.0}, r"^tuning_time_s must be >= 0 and finite, got -1\.0$"),
        ({"power_knee_dbm": math.nan}, r"^power_knee_dbm must be finite, got nan$"),
        ({"depth_slope_db_per_db": math.inf}, r"^depth_slope_db_per_db must be finite, got inf$"),
        ({"f_tune_range_hz": (1e9, math.nan)}, r"^f_tune_range_hz must be an increasing pair in \(0, inf\)"),
        ({"f_tune_range_hz": (1e9, 2e9, 3e9)}, r"^f_tune_range_hz must be an increasing pair in \(0, inf\), got \(1000000000\.0, "),
        ({"f_tune_range_hz": [1e9]}, r"^f_tune_range_hz must be an increasing pair in \(0, inf\), got \[1000000000\.0\]$"),
    ],
)
def test_model_refuses_by_name(kw, message):
    with pytest.raises(ValueError, match=message):
        NotchModel(**kw)
    assert NotchModel(tuning_time_s=0.0).tuning_time_s == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: effective_depth_db(NotchModel(), math.nan), r"^p_in_dbm must not be NaN$"),
        (lambda: notch_s21_db(NotchModel(), engaged_at(8e9), 8e9, math.nan, 1.0), r"^p_in_dbm must not be NaN$"),
        (lambda: notch_s21_db(NotchModel(), engaged_at(8e9), math.nan, 0.0, 1.0), r"^f_hz must be positive and finite, got nan$"),
        (lambda: notch_s21_db(NotchModel(), engaged_at(8e9), 0.0, 0.0, 1.0), r"^f_hz must be positive and finite, got 0\.0$"),
        (lambda: notch_s21_db(NotchModel(), engaged_at(8e9), math.inf, 0.0, 1.0), r"^f_hz must be positive and finite, got inf$"),
        # Checked before the state: a disengaged notch refuses alike.
        (lambda: notch_s21_db(NotchModel(), FilterState(), 8e9, 0.0, math.nan), r"^t_s=nan is not a finite time$"),
        (lambda: notch_s21_db(NotchModel(), FilterState(), -8e9, 0.0, 1.0), r"^f_hz must be positive and finite, got -8000000000\.0$"),
        (lambda: stopband_gamma(NotchModel(), engaged_at(8e9), math.nan, 0.0, 1.0), r"^f_hz must be positive and finite, got nan$"),
        (lambda: stopband_gamma(NotchModel(), engaged_at(8e9), 8e9, 0.0, -math.inf), r"^t_s=-inf is not a finite time$"),
        # An absorptive notch reflects nothing, and refuses alike.
        (lambda: stopband_gamma(ABSORPTIVE, engaged_at(8e9), math.nan, 0.0, 1.0), r"^f_hz must be positive and finite, got nan$"),
        (lambda: stopband_gamma(ABSORPTIVE, FilterState(), 0.0, 0.0, 1.0), r"^f_hz must be positive and finite, got 0\.0$"),
        (lambda: stopband_gamma(ABSORPTIVE, engaged_at(8e9), 8e9, math.nan, 1.0), r"^p_in_dbm must not be NaN$"),
        (lambda: stopband_gamma(ABSORPTIVE, engaged_at(8e9), 8e9, 0.0, math.nan), r"^t_s=nan is not a finite time$"),
    ],
    ids=["depth_nan_power", "s21_nan_power", "s21_nan_freq", "s21_zero_freq", "s21_inf_freq", "s21_nan_time",
         "s21_negative_freq", "gamma_nan_freq", "gamma_inf_time", "absorptive_gamma_nan_freq",
         "absorptive_gamma_zero_freq", "absorptive_gamma_nan_power", "absorptive_gamma_nan_time"],
)
def test_reads_refuse_by_name(call, message):
    # Each read once answered a plausible number (30 dB, -30 dB, 0.0) or nan.
    with pytest.raises(ValueError, match=message):
        call()


def test_reads_take_infinite_powers():
    # Only a NaN power is refused; the engine reads a silent line at -300 dBm.
    m = NotchModel()
    assert effective_depth_db(m, -math.inf) == effective_depth_db(m, -300.0) == 30.0
    assert effective_depth_db(m, math.inf) == MIN_DEPTH_DB
    assert notch_s21_db(m, engaged_at(8e9), 8e9, -300.0, 1.0) == -30.0


def test_model_validation():
    with pytest.raises(ValueError):
        NotchModel(kind="brickwall")
    with pytest.raises(ValueError):
        NotchModel(depth_db=0.0)
    with pytest.raises(ValueError):
        NotchModel(f_tune_range_hz=(5e9, 2e9))
