import math
from array import array
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swsense.codec import to_json
from swsense.controller import ControllerConfig
from swsense.core import (
    SignalDescriptor,
    Tone,
    check_positive,
    dbm_to_watts,
    expand_modulated,
    expand_signal,
    interp,
    watts_to_dbm,
)
from swsense.coupling import DirectionalCouplerParams
from swsense.estimator import CalibrationGrid
from swsense.filters import NotchModel
from swsense.readout import AmplifierParams, AttenuatorParams, DetectorParams


def test_dbm_to_watts_anchors():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(20.0) == pytest.approx(0.1)
    assert dbm_to_watts(-20.0) == pytest.approx(1e-5)


@given(st.floats(min_value=-80.0, max_value=40.0))
def test_dbm_watts_round_trip(p_dbm):
    assert watts_to_dbm(dbm_to_watts(p_dbm)) == pytest.approx(p_dbm, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("x", [True, False, 0, -1.0, math.nan, math.inf])
def test_check_positive_refuses_by_name(x):
    # A bool is not a number here: True once passed as 1.
    with pytest.raises(ValueError, match=rf"^r_c must be positive and finite, got {x!r}$"):
        check_positive(SimpleNamespace(z0=50.0, r_c=x), "z0", "r_c")


def test_watts_to_dbm_rejects_nonpositive():
    for p_w in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match=rf"^power must be positive, got {p_w!r} W$"):
            watts_to_dbm(p_w)


@pytest.mark.parametrize(
    "p_dbm, message",
    [
        (math.nan, r"^power nan dBm is not a number$"),
        (1e6, r"^power 1000000\.0 dBm is too large: its watts overflow a float$"),
        (3082.55, r"^power 3082\.55 dBm is too large: its watts overflow a float$"),
    ],
)
def test_dbm_to_watts_refuses_by_name(p_dbm, message):
    with pytest.raises(ValueError, match=message):
        dbm_to_watts(p_dbm)


def test_dbm_to_watts_edges():
    assert dbm_to_watts(-math.inf) == 0.0
    assert dbm_to_watts(3082.54) == pytest.approx(1.7947e305, rel=1e-4)


def _tone(**kw):
    return Tone(**{"freq_hz": 8e9, "power_dbm": 0.0, **kw})


_BOOL_FIELDS = {
    DetectorParams: ("intercept_b", "v_in_min", "v_in_max"),
    AmplifierParams: ("gain_db", "p_out_sat_dbm"),
    AttenuatorParams: ("step_db", "max_db"),
    ControllerConfig: (
        "threshold_dbm", "agc_high_code", "agc_low_code", "clock_period", "retune_deadband_hz", "switch_freq_hz"
    ),
    _tone: ("freq_hz", "power_dbm", "t_on_s", "t_off_s", "occupied_bw_hz", "n_subtones"),
    CalibrationGrid: ("f_start_hz", "f_stop_hz", "f_step_hz", "p_start_dbm", "p_stop_dbm", "p_step_dbm"),
    NotchModel: ("tuning_time_s", "power_knee_dbm", "depth_slope_db_per_db"),
    DirectionalCouplerParams: ("f_min_hz", "f_max_hz"),
}


@pytest.mark.parametrize(
    "block, field", [(block, field) for block, names in _BOOL_FIELDS.items() for field in names]
)
@pytest.mark.parametrize("x", [True, False])
def test_number_fields_refuse_a_bool_by_name(block, field, x):
    # A bool once passed as the number 1 or 0; the codec already refuses it in a file.
    with pytest.raises(ValueError, match=rf"^{field} must be a number, not a bool; got {x!r}$"):
        block(**{field: x})


class TestTone:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tone(freq_hz=-1e9, power_dbm=0.0)
        with pytest.raises(ValueError):
            Tone(freq_hz=1e9, power_dbm=0.0, t_on_s=2e-6, t_off_s=1e-6)
        with pytest.raises(ValueError):
            Tone(freq_hz=1e9, power_dbm=0.0, occupied_bw_hz=12e6, n_subtones=4)
        with pytest.raises(ValueError):
            # comb must not reach into nonpositive frequencies
            Tone(freq_hz=1e9, power_dbm=0.0, occupied_bw_hz=2.5e9)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"t_on_s": math.nan}, r"^need -inf < t_on_s < t_off_s, got t_on_s=nan, t_off_s=inf$"),
            ({"t_on_s": -math.inf}, r"^need -inf < t_on_s < t_off_s, got t_on_s=-inf, t_off_s=inf$"),
            ({"t_off_s": math.nan}, r"^need -inf < t_on_s < t_off_s, got t_on_s=0\.0, t_off_s=nan$"),
            ({"occupied_bw_hz": math.nan}, r"^occupied_bw_hz must be >= 0 and finite, got nan$"),
            ({"occupied_bw_hz": math.inf}, r"^occupied_bw_hz must be >= 0 and finite, got inf$"),
        ],
    )
    def test_nan_is_refused_by_name(self, kw, message):
        with pytest.raises(ValueError, match=message):
            Tone(freq_hz=8e9, power_dbm=0.0, **kw)
        assert Tone(freq_hz=8e9, power_dbm=0.0, t_off_s=math.inf).active(1e300)

    def test_power_whose_watts_overflow_is_refused(self):
        # The watts of 3082.55 dBm overflow a float; 3082.54 dBm is about 1.79e305 W.
        assert Tone(freq_hz=8e9, power_dbm=3082.54).power_dbm == 3082.54
        for p_dbm in (3082.55, 4000.0):
            with pytest.raises(ValueError, match=rf"^power {p_dbm} dBm is too large: its watts overflow a float$"):
                Tone(freq_hz=8e9, power_dbm=p_dbm)

    def test_subtone_defaults(self):
        assert Tone(freq_hz=1e9, power_dbm=0.0).n_subtones == 1
        assert Tone(freq_hz=1e9, power_dbm=0.0, occupied_bw_hz=12e6).n_subtones == 31

    def test_activity_window_half_open(self):
        t = Tone(freq_hz=1e9, power_dbm=0.0, t_on_s=1e-6, t_off_s=2e-6)
        assert not t.active(0.999e-6)
        assert t.active(1e-6)
        assert t.active(1.5e-6)
        assert not t.active(2e-6)

    def test_cw_active_forever(self):
        t = Tone(freq_hz=1e9, power_dbm=0.0)
        assert t.active(0.0) and t.active(1.0)


class TestExpandModulated:
    def test_cw_degenerate(self):
        lines = expand_modulated(Tone(freq_hz=6e9, power_dbm=0.0))
        assert lines == [(6e9, pytest.approx(1e-3))]

    def test_three_subtone_comb(self):
        t = Tone(freq_hz=6e9, power_dbm=0.0, occupied_bw_hz=12e6, n_subtones=3)
        lines = expand_modulated(t)
        assert [f for f, _ in lines] == [
            pytest.approx(5.994e9),
            pytest.approx(6.0e9),
            pytest.approx(6.006e9),
        ]
        for _, w in lines:
            assert w == pytest.approx(1e-3 / 3)

    @given(
        st.floats(min_value=1e9, max_value=15e9),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=100e6),
        st.integers(min_value=1, max_value=15).map(lambda k: 2 * k + 1),
    )
    def test_power_conservation(self, f, p, bw, n):
        t = Tone(freq_hz=f, power_dbm=p, occupied_bw_hz=bw, n_subtones=n if bw > 0 else 0)
        lines = expand_modulated(t)
        assert sum(w for _, w in lines) == pytest.approx(dbm_to_watts(p), rel=1e-12)
        span = max(fr for fr, _ in lines) - min(fr for fr, _ in lines)
        assert span == pytest.approx(bw if len(lines) > 1 else 0.0, abs=1.0)


def test_expand_signal_concatenates():
    sig = SignalDescriptor(
        (
            Tone(freq_hz=2e9, power_dbm=0.0),
            Tone(freq_hz=9e9, power_dbm=-10.0, occupied_bw_hz=12e6, n_subtones=3),
        )
    )
    lines = expand_signal(sig)
    assert len(lines) == 4
    assert math.isclose(sum(w for _, w in lines), 1e-3 + 1e-4, rel_tol=1e-12)


_TONES = st.builds(
    Tone,
    freq_hz=st.floats(1e9, 16e9),
    power_dbm=st.floats(-40.0, 30.0),
    occupied_bw_hz=st.sampled_from([0.0, 0.0, 12e6, 40e6]),
)


class TestStoredLines:
    """A descriptor keeps its expansion as a tuple that no field-based view sees."""

    @given(st.lists(_TONES, max_size=4))
    def test_lines_are_the_expansion(self, tones):
        sig = SignalDescriptor(tuple(tones))
        assert isinstance(sig.lines, tuple)
        assert sig.lines == tuple(expand_signal(sig))

    def test_expand_signal_returns_a_fresh_list(self):
        sig = SignalDescriptor((Tone(freq_hz=2e9, power_dbm=0.0),))
        lines = expand_signal(sig)
        lines.append((3e9, 1.0))
        assert expand_signal(sig) == list(sig.lines) == [(2e9, 1e-3)]

    def test_invisible_to_equality_repr_hash_and_json(self):
        sig = SignalDescriptor((Tone(freq_hz=9e9, power_dbm=-10.0, occupied_bw_hz=12e6),))
        other = SignalDescriptor(sig.tones)
        object.__setattr__(other, "lines", ())
        assert other == sig and hash(other) == hash(sig) and repr(other) == repr(sig)
        assert "lines" not in repr(sig)
        assert to_json(sig) == to_json(other) and set(to_json(sig)) == {"tones"}

    def test_replace_recomputes(self):
        sig = SignalDescriptor((Tone(freq_hz=2e9, power_dbm=0.0),))
        comb = Tone(freq_hz=9e9, power_dbm=-10.0, occupied_bw_hz=12e6, n_subtones=3)
        moved = replace(sig, tones=(comb,))
        assert moved.lines == tuple(expand_modulated(comb)) != sig.lines
        assert len(moved.lines) == 3


# Ascending breakpoints: any floats, integer-valued ones like a front's
# deltas, and repeated ones, which a coupler table may hold.
_breakpoints = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
    st.lists(st.integers(-40, 40).map(float), min_size=1, max_size=12),
    st.lists(st.sampled_from([-2.5, 0.0, 0.5, 7.0]), min_size=1, max_size=12),
).map(sorted)


@given(_breakpoints, st.data())
def test_interp_is_np_interp(xs, data):
    ys = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(xs), max_size=len(xs)))
    mids = [a + u * (b - a) for a, b in zip(xs, xs[1:]) for u in (0.25, 0.5, 0.9)]
    near = [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
    queries = [xs[0] - 1.0, *xs, *mids, *near, xs[-1] + 1.0, data.draw(st.floats(-2e6, 2e6))]
    xa, ya = array("d", xs), array("d", ys)
    for q in queries:
        want = float(np.interp(q, np.array(xs), np.array(ys)))
        assert interp(q, xa, ya).hex() == want.hex(), (q, xs, ys)
        assert interp(q, xs, ys).hex() == want.hex(), (q, xs, ys)  # plain lists read alike


@pytest.mark.parametrize("xs", [[1.0], [1.0, 2.0], [1.0, 1.0, 3.0], [1e9, 14e9], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
@pytest.mark.parametrize("flat", [False, True])
def test_interp_of_nan_is_np_interp(xs, flat):
    # Equal ys too: numpy answers a NaN x with NaN before any slope, so its
    # equal-ys fallback for a NaN slope never applies to it.
    ys = [5.0 if flat else float(i + 5) for i in range(len(xs))]
    want = float(np.interp(math.nan, xs, ys))
    got = interp(math.nan, array("d", xs), array("d", ys))
    assert got == want or (math.isnan(got) and math.isnan(want))
