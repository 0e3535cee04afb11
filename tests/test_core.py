import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from swsense.codec import to_json
from swsense.core import (
    SignalDescriptor,
    Tone,
    dbm_to_watts,
    expand_modulated,
    expand_signal,
    watts_to_dbm,
)


def test_dbm_to_watts_anchors():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(20.0) == pytest.approx(0.1)
    assert dbm_to_watts(-20.0) == pytest.approx(1e-5)


@given(st.floats(min_value=-80.0, max_value=40.0))
def test_dbm_watts_round_trip(p_dbm):
    assert watts_to_dbm(dbm_to_watts(p_dbm)) == pytest.approx(p_dbm, abs=1e-12, rel=1e-12)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1e-3)


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
