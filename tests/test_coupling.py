"""Pick-off network checks against an independent nodal-analysis oracle.

The closed forms in swsense.coupling are cross-checked by solving the tap
circuit directly: a Thevenin source (V_s, Z0) drives node A, the through
load Z0 hangs on A, and R_C runs from A to node B which is terminated by
the matched monitor load Z0. Powers are referenced to the available power
V_s^2 / (4 Z0).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swsense.coupling import (
    DirectionalCouplerParams,
    ResistiveTapParams,
    coupler_response,
    sampled_forward_amplitude,
    tap_coupling,
    tap_dissipation,
    tap_input_limit_dbm,
    tap_sparams,
)
from swsense.errors import OutOfBandError
from swsense.readout import ChainConfig


def nodal_tap(r_c, z0, p_in_w):
    """Solve the tap circuit; returns per-path powers in watts."""
    v_s = math.sqrt(4.0 * p_in_w * z0)  # RMS source voltage for P_avail = p_in_w
    g = np.array(
        [
            [2.0 / z0 + 1.0 / r_c, -1.0 / r_c],
            [-1.0 / r_c, 1.0 / r_c + 1.0 / z0],
        ]
    )
    i = np.array([v_s / z0, 0.0])
    v_a, v_b = np.linalg.solve(g, i)
    return {
        "through": v_a**2 / z0,
        "monitor": v_b**2 / z0,
        "r_c": (v_a - v_b) ** 2 / r_c,
        "reflected": (v_s / 2.0 - v_a) ** 2 / z0,
        "available": p_in_w,
    }


@given(st.floats(min_value=5.0, max_value=5000.0), st.floats(min_value=10.0, max_value=200.0))
def test_formulas_match_nodal_solve(r_c, z0):
    p = ResistiveTapParams(r_c=r_c, z0=z0)
    sol = nodal_tap(r_c, z0, 1.0)
    assert tap_coupling(p) == pytest.approx(10 * math.log10(sol["monitor"]), abs=1e-9)
    s11, s21 = tap_sparams(p)
    assert s21 == pytest.approx(10 * math.log10(sol["through"]), abs=1e-9)
    assert s11 == pytest.approx(10 * math.log10(sol["reflected"]), abs=1e-9)
    assert tap_dissipation(p, 30.0) == pytest.approx(sol["r_c"], rel=1e-9)


@given(st.floats(min_value=5.0, max_value=5000.0))
def test_tap_energy_conservation(r_c):
    sol = nodal_tap(r_c, 50.0, 1.0)
    total = sol["through"] + sol["monitor"] + sol["r_c"] + sol["reflected"]
    assert total == pytest.approx(sol["available"], rel=1e-12)


def test_paper_design_point_210():
    p = ResistiveTapParams(r_c=210.0, z0=50.0)
    s11, s21 = tap_sparams(p)
    assert tap_coupling(p) == pytest.approx(-15.117497, abs=1e-5)
    assert s11 == pytest.approx(-21.138097, abs=1e-5)
    assert s21 == pytest.approx(-0.797430, abs=1e-5)


def test_default_design_point_220():
    p = ResistiveTapParams()
    assert p.r_c == 220.0
    s11, s21 = tap_sparams(p)
    assert tap_coupling(p) == pytest.approx(-15.417040, abs=1e-5)
    assert s11 == pytest.approx(-21.437640, abs=1e-5)
    assert s21 == pytest.approx(-0.769165, abs=1e-5)
    # 12.64 mW dissipated in the coupling resistor at +20 dBm drive
    assert tap_dissipation(p, 20.0) == pytest.approx(0.01264005, abs=1e-7)


def test_tap_monotonicity_in_r_c():
    r = np.linspace(10.0, 2000.0, 50)
    c = [tap_coupling(ResistiveTapParams(r_c=x)) for x in r]
    s11 = [tap_sparams(ResistiveTapParams(r_c=x))[0] for x in r]
    s21 = [tap_sparams(ResistiveTapParams(r_c=x))[1] for x in r]
    assert all(a > b for a, b in zip(c, c[1:]))  # coupling weakens
    assert all(a > b for a, b in zip(s11, s11[1:]))  # better match
    assert all(a < b for a, b in zip(s21, s21[1:]))  # lower loss
    assert s21[-1] < 0.0


def test_input_limit_matches_dissipation():
    p = ResistiveTapParams()
    limit = tap_input_limit_dbm(p, 0.05)
    assert tap_dissipation(p, limit) == pytest.approx(0.05, rel=1e-9)
    # +20 dBm drive sits comfortably under the smallest package line
    assert tap_dissipation(p, 20.0) < 0.05


@pytest.mark.parametrize("limit_w", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_input_limit_refuses_a_package_limit_by_name(limit_w):
    # -1.0 W once raised a bare "math domain error"; inf answered inf dBm.
    with pytest.raises(ValueError, match=rf"^package_limit_w must be positive and finite, got {limit_w!r}$"):
        tap_input_limit_dbm(ResistiveTapParams(), limit_w)


@pytest.mark.parametrize(
    "p_in_dbm, message",
    [
        (math.nan, r"^p_in_dbm must be finite, got nan$"),
        (math.inf, r"^p_in_dbm must be finite, got inf$"),
        (-math.inf, r"^p_in_dbm must be finite, got -inf$"),
        (1e6, r"^p_in_dbm=1000000\.0 is too large: its watts overflow a float$"),
    ],
)
def test_dissipation_refuses_an_input_power_by_name(p_in_dbm, message):
    # NaN once answered NaN, and 1e6 dBm raised a bare OverflowError.
    with pytest.raises(ValueError, match=message):
        tap_dissipation(ResistiveTapParams(), p_in_dbm)


def test_tap_refuses_a_bool_resistance():
    with pytest.raises(ValueError, match=r"^r_c must be positive and finite, got True$"):
        ResistiveTapParams(r_c=True)


class TestCoupler:
    def test_insertion_interpolates(self):
        p = DirectionalCouplerParams()
        c, ins, d = coupler_response(p, 7.5e9)
        assert c == pytest.approx(-15.0)
        assert ins == pytest.approx(0.8 + 0.8 * (7.5 - 1.0) / 13.0)
        assert d == pytest.approx(6.0)

    def test_out_of_band(self):
        p = DirectionalCouplerParams()
        with pytest.raises(OutOfBandError):
            coupler_response(p, 15e9)
        with pytest.raises(OutOfBandError):
            coupler_response(p, 0.5e9)
        with pytest.raises(OutOfBandError):
            ChainConfig(coupling_kind="coupler", coupler=p).coupling_db_at(15e9)

    @given(
        st.lists(st.tuples(st.floats(1e9, 14e9), st.floats(-30.0, 30.0)), min_size=1, max_size=5),
        st.floats(-30.0, 30.0),
        st.floats(1e9, 14e9),
    )
    def test_tables_read_as_np_interp_of_the_sorted_breakpoints(self, points, flat, f):
        # Tables are converted once per params; each value must equal a
        # from-scratch np.interp of the table bit for bit.
        def interp(table):
            pts = sorted(table)
            return float(np.interp(f, np.array([x for x, _ in pts]), np.array([y for _, y in pts])))

        table = tuple(points)
        p = DirectionalCouplerParams(coupling_db=table, insertion_db=flat, directivity_db=table[::-1])
        assert coupler_response(p, f) == (interp(table), flat, interp(table))
        cfg = ChainConfig(coupling_kind="coupler", coupler=p, gain_ripple=table)
        assert (cfg.coupling_db_at(f), cfg.through_loss_db_at(f), cfg.directivity_db_at(f)) == coupler_response(p, f)
        assert cfg.ripple_db_at(f) == interp(table)
        assert ChainConfig().ripple_db_at(f) == 0.0


TAP = ChainConfig()
COUPLER = ChainConfig(coupling_kind="coupler")


class TestSampledForwardAmplitude:
    def test_matched_is_unity(self):
        assert sampled_forward_amplitude(0.0, 1e-10, 6e9, TAP.directivity_db_at(6e9)) == pytest.approx(1.0)
        assert sampled_forward_amplitude(
            0.0, 1e-10, 6e9, COUPLER.directivity_db_at(6e9)
        ) == pytest.approx(1.0)

    def test_tap_null_at_pi(self):
        # one-way delay = 1/(4f) puts the round trip at half a period: phase pi
        f = 6e9
        r = sampled_forward_amplitude(1.0, 1.0 / (4.0 * f), f, TAP.directivity_db_at(f))
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_tap_peak_at_2pi(self):
        f = 6e9
        r = sampled_forward_amplitude(1.0, 1.0 / (2.0 * f), f, TAP.directivity_db_at(f))
        assert r == pytest.approx(2.0)

    def test_coupler_directivity_bounds_dip(self):
        f = 6e9
        r = sampled_forward_amplitude(1.0, 1.0 / (4.0 * f), f, COUPLER.directivity_db_at(f))
        assert r == pytest.approx(1.0 - 10 ** (-6.0 / 20.0), abs=1e-12)
        # infinite directivity: reflection becomes invisible
        huge = ChainConfig(coupling_kind="coupler", coupler=DirectionalCouplerParams(directivity_db=300.0))
        assert sampled_forward_amplitude(1.0, 1.0 / (4.0 * f), f, huge.directivity_db_at(f)) == pytest.approx(1.0)

    def test_gamma_magnitude_validated(self):
        with pytest.raises(ValueError):
            sampled_forward_amplitude(1.5, 0.0, 6e9, TAP.directivity_db_at(6e9))

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1e-9),
        st.floats(1e9, 16e9),
        st.floats(0.0, 60.0),
    )
    def test_leak_bounds_the_ripple(self, gamma, delay, f, d):
        r = sampled_forward_amplitude(gamma, delay, f, d)
        leak = gamma * 10.0 ** (-d / 20.0)
        # abs() of the complex sum may round one ulp past the exact bound.
        assert 1.0 - leak - 1e-15 <= r <= 1.0 + leak + 1e-15
        # 0 dB is the tap: the standing-wave sum of forward and reflected waves.
        assert sampled_forward_amplitude(gamma, delay, f) == abs(
            1.0 + gamma * cmath.exp(-4j * math.pi * f * delay)
        )

    @given(
        st.one_of(st.just(math.nan), st.floats(max_value=-1e-300), st.floats(min_value=1.0 + 1e-15)),
        st.floats(0.0, 60.0),
    )
    def test_gamma_outside_unit_interval_raises(self, gamma, d):
        with pytest.raises(ValueError, match="reflection magnitude"):
            sampled_forward_amplitude(gamma, 1e-10, 8e9, d)
