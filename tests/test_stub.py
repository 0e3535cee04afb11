"""Standing-wave stub voltage model."""

import math

import pytest
from hypothesis import given, strategies as st

from swsense.errors import BijectivityError
from swsense.stub import (
    StubParams,
    TapSpec,
    standing_ratio,
    tap_length,
    tap_rms_voltages,
    v_oc_magnitude,
    wrapped_ratio,
)

C0 = 299792458.0


def test_v_oc_anchors():
    # sqrt(8 P Z0): 1 mW -> 0.6325 V, 100 mW -> 6.3246 V on a 50 ohm stub
    assert v_oc_magnitude(1e-3, 50.0) == pytest.approx(0.63245553, abs=1e-7)
    assert v_oc_magnitude(0.1, 50.0) == pytest.approx(6.32455532, abs=1e-7)
    assert v_oc_magnitude(0.0, 50.0) == 0.0


@pytest.mark.parametrize(
    "p_w, z0s, message",
    [
        (-1e-6, 50.0, r"^p_stub_w must be >= 0 and finite, got -1e-06$"),
        (math.nan, 50.0, r"^p_stub_w must be >= 0 and finite, got nan$"),
        (math.inf, 50.0, r"^p_stub_w must be >= 0 and finite, got inf$"),
        (1e-3, math.nan, r"^z0s must be positive and finite, got nan$"),
        (1e-3, 0.0, r"^z0s must be positive and finite, got 0\.0$"),
        (1e-3, math.inf, r"^z0s must be positive and finite, got inf$"),
    ],
)
def test_v_oc_refuses_by_name(p_w, z0s, message):
    # NaN once answered NaN.
    with pytest.raises(ValueError, match=message):
        v_oc_magnitude(p_w, z0s)


def test_v_oc_composite():
    # two uncorrelated lines add in power at the open end
    v, _ = tap_rms_voltages([(6e9, 1e-3), (9e9, 2e-3)], StubParams())
    assert v == pytest.approx(math.sqrt(8.0 * 3e-3 * 50.0), rel=1e-12)
    assert v == pytest.approx(1.09544512, abs=1e-7)


def test_standing_ratio_anchor():
    assert standing_ratio(8e9, 16e9) == pytest.approx(math.cos(math.pi / 4.0), rel=1e-12)
    assert standing_ratio(16e9, 16e9) == pytest.approx(0.0, abs=1e-12)


def test_standing_ratio_rejects_outside_monotone_range():
    with pytest.raises(BijectivityError):
        standing_ratio(16.1e9, 16e9)
    with pytest.raises(BijectivityError):
        standing_ratio(0.0, 16e9)


def test_wrapped_ratio_periodicity():
    # beyond the null the response folds back: 24 GHz aliases onto 8 GHz
    assert wrapped_ratio(24e9, 16e9) == pytest.approx(wrapped_ratio(8e9, 16e9), rel=1e-12)
    assert wrapped_ratio(17e9, 16e9) > 0.0


def test_tap_length_air_dielectric():
    # c / (4 * 16 GHz) = 4.684 mm
    assert tap_length(16e9) == pytest.approx(0.00468425715625, rel=1e-12)
    assert tap_length(5e9) == pytest.approx(C0 / 2e10, rel=1e-12)


@pytest.mark.parametrize(
    "args, message",
    [
        ((math.nan,), r"^f_max_hz must be positive and finite, got nan$"),
        ((math.inf,), r"^f_max_hz must be positive and finite, got inf$"),
        ((0.0,), r"^f_max_hz must be positive and finite, got 0\.0$"),
        ((16e9, math.nan), r"^eps_eff must be positive and finite, got nan$"),
        ((16e9, math.inf), r"^eps_eff must be positive and finite, got inf$"),
        ((16e9, -1.0), r"^eps_eff must be positive and finite, got -1\.0$"),
    ],
)
def test_tap_length_refuses_by_name(args, message):
    with pytest.raises(ValueError, match=message):
        tap_length(*args)


def test_tap_length_scales_with_dielectric():
    assert tap_length(16e9, eps_eff=4.0) == pytest.approx(tap_length(16e9) / 2.0, rel=1e-12)


def test_tap_rms_single_tone_anchors():
    stub = StubParams()
    v_oc, (v1, v2) = tap_rms_voltages([(8e9, 1e-3)], stub)
    assert v_oc == pytest.approx(0.63245553, abs=1e-7)
    # l1 tap: cos(pi/4) of the open end; l2 tap wraps past its null
    assert v1 == pytest.approx(0.44721360, abs=1e-7)
    assert v2 == pytest.approx(0.63245553 * wrapped_ratio(8e9, 5e9), abs=1e-7)
    assert v2 == pytest.approx(0.51166727, abs=1e-7)


@given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e8, max_value=1.59e10))
def test_tap_voltages_scale_with_sqrt_power(p_w, f_hz):
    stub = StubParams()
    v_oc, taps = tap_rms_voltages([(f_hz, p_w)], stub)
    v_oc4, taps4 = tap_rms_voltages([(f_hz, 4.0 * p_w)], stub)
    assert v_oc4 == pytest.approx(2.0 * v_oc, rel=1e-12)
    for a, b in zip(taps4, taps):
        assert a == pytest.approx(2.0 * b, rel=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e8, max_value=1.5e10),
            st.floats(min_value=1e-9, max_value=1e-2),
        ),
        min_size=2,
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_tap_voltages_permutation_invariant(lines, rnd):
    stub = StubParams()
    shuffled = list(lines)
    rnd.shuffle(shuffled)
    v_a, taps_a = tap_rms_voltages(lines, stub)
    v_b, taps_b = tap_rms_voltages(shuffled, stub)
    assert v_a == pytest.approx(v_b, rel=1e-12)
    for a, b in zip(taps_a, taps_b):
        assert a == pytest.approx(b, rel=1e-9)


def test_two_equal_tones_sqrt2():
    v1, _ = tap_rms_voltages([(6e9, 1e-3)], StubParams())
    v2, _ = tap_rms_voltages([(6e9, 1e-3), (6.1e9, 1e-3)], StubParams())
    assert v2 == pytest.approx(math.sqrt(2.0) * v1, rel=1e-3)


def test_weak_tone_barely_moves_open_end():
    # a line 20 dB down shifts the open-end voltage by under half a percent
    strong = [(6e9, 1e-3)]
    both = [(6e9, 1e-3), (9e9, 1e-5)]
    v_s, _ = tap_rms_voltages(strong, StubParams())
    v_b, _ = tap_rms_voltages(both, StubParams())
    assert v_b / v_s == pytest.approx(1.0, abs=5e-3)
    assert v_b > v_s


class TestParams:
    def test_default_taps(self):
        stub = StubParams()
        assert [t.name for t in stub.taps] == ["l1", "l2"]
        assert [t.f_max_hz for t in stub.taps] == [16e9, 5e9]

    def test_tap_order_enforced(self):
        with pytest.raises(ValueError):
            StubParams(taps=(TapSpec("a", 5e9), TapSpec("b", 16e9)))

    def test_positive_params_enforced(self):
        with pytest.raises(ValueError):
            StubParams(z0s=0.0)
        with pytest.raises(ValueError):
            TapSpec("x", -1.0)
        with pytest.raises(ValueError):
            tap_rms_voltages([(6e9, -1e-3)], StubParams())


@pytest.mark.parametrize(
    "lines, message",
    [
        # Read as (0.632, [0.447, 0.512]) V once.
        ([(-8e9, 1e-3)], r"^line 0: frequency -8000000000\.0 Hz is not positive and finite$"),
        ([(8e9, 1e-3), (0.0, 1e-3)], r"^line 1: frequency 0\.0 Hz is not positive and finite$"),
        ([(math.inf, 1e-3)], r"^line 0: frequency inf Hz is not positive and finite$"),
        ([(math.nan, 1e-3)], r"^line 0: frequency nan Hz is not positive and finite$"),
        # Read as NaN and inf volts once.
        ([(8e9, math.nan)], r"^line 0 at 8\.000 GHz: stub power nan W is not >= 0 and finite$"),
        ([(6e9, 1e-3), (8e9, math.inf)], r"^line 1 at 8\.000 GHz: stub power inf W is not >= 0 and finite$"),
        ([(6e9, -1e-3)], r"^line 0 at 6\.000 GHz: stub power -0\.001 W is not >= 0 and finite$"),
    ],
)
def test_tap_rms_voltages_refuses_a_line_by_index(lines, message):
    with pytest.raises(ValueError, match=message):
        tap_rms_voltages(lines, StubParams())
