"""The read-out chain, the array calibration build and the precomputed inverse against their scalar references.

tests/scalar_reference.py keeps the read-out chain that derives every
config constant per call, the per-cell calibration loop, the per-call
estimator and the controller with a code check in each branch. The
library must reproduce them bit for bit: every detector voltage and code,
every array of every table, every settled CW cell, every Estimate, every
controller state and action, and the type and text of every error. agc_policy on arrays must
give its scalar result per element, and the bundled tables are pinned by
digest, which a change to that rule would move.
"""

import hashlib
import math
from dataclasses import replace
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scalar_reference import (
    ControllerStateRef,
    _code_to_stub_dbm,
    build_calibration_scalar,
    chain_readout_lines_scalar,
    chain_readout_lines_two_pass,
    chain_voltages_lines_scalar,
    estimate_scalar,
    on_sample_ref,
    settle_ref,
)
import swsense.controller
import swsense.readout
from swsense.controller import (
    MODE_ENGAGED,
    MODE_ENGAGING,
    MODE_IDLE,
    MODE_RELEASING,
    ControllerConfig,
    ControllerState,
    agc_policy,
    on_sample,
    settle_cw,
)
from swsense.core import SignalDescriptor, Tone, dbm_to_watts
from swsense.coupling import DirectionalCouplerParams
from swsense.engine import load_scenario
from swsense.errors import OutOfBandError
from swsense.stub import StubParams, TapSpec
from swsense.estimator import (
    CalibrationGrid,
    _code_dbm,
    build_calibration,
    default_grid_for,
    estimate,
)
from swsense.readout import (
    AdcParams,
    AmplifierParams,
    AttenuatorParams,
    ChainConfig,
    DetectorParams,
    TapCodes,
    chain_codes_cw,
    chain_readout,
    chain_readout_lines,
    chain_voltages_lines,
)

TABLE_ARRAYS = ("freqs_hz", "powers_dbm", "att_db", "code_oc", "code_l1", "code_l2")


def outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison covers every error type
        return type(exc), str(exc)


def assert_same_table(cal, ref):
    for name in TABLE_ARRAYS:
        a, b = getattr(cal, name), getattr(ref, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert cal.cfg == ref.cfg


def assert_same_build(cfg, grid, ctrl):
    got = outcome(build_calibration, cfg, grid, ctrl)
    ref = outcome(build_calibration_scalar, cfg, grid, ctrl)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert not isinstance(got, tuple), got
        assert_same_table(got, ref)


def agc_window(ctrl):
    return ctrl.agc_high_code, ctrl.agc_low_code


def with_window(cfg, window):
    """The chain's controller with an AGC window `window` codes wide."""
    ctrl = ControllerConfig.for_chain(cfg)
    return replace(ctrl, agc_low_code=ctrl.agc_high_code - window)


def table_digest(cal):
    """sha256 of the six arrays of a table, as little-endian 8-byte numbers."""
    h = hashlib.sha256()
    for name in TABLE_ARRAYS:
        a = getattr(cal, name)
        h.update(np.ascontiguousarray(a, dtype="<f8" if a.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


def bundled_tables():
    """(chain, controller) of each distinct table the bundled scenarios build."""
    folder = resources.files("swsense").joinpath("data/scenarios")
    seen = {}
    for path in sorted(folder.iterdir()):
        for stage in load_scenario(str(path)).stages:
            seen.setdefault((stage.chain, agc_window(stage.controller)), (stage.chain, stage.controller))
    return list(seen.values())


class TestCalibrationParity:
    def test_default_grid(self, chain, controller, calibration):
        assert_same_table(calibration, build_calibration_scalar(chain, None, controller))

    def test_bundled_scenario_grids(self, chain, controller):
        tables = bundled_tables()
        assert sorted(c.coupling_kind for c, _ in tables) == ["coupler", "tap"]
        for cfg, ctrl in tables:
            if cfg.coupling_kind == "tap":
                # The default table, which test_default_grid compares.
                assert (cfg, agc_window(ctrl)) == (chain, agc_window(controller))
                assert default_grid_for(cfg) == CalibrationGrid()
            else:
                assert_same_build(cfg, default_grid_for(cfg), ctrl)

    def test_gain_ripple_chain(self):
        cfg = ChainConfig(gain_ripple=((1e9, -1.5), (6e9, 0.8), (11e9, -0.4), (16e9, -2.0)))
        assert_same_build(cfg, CalibrationGrid(1e9, 16e9, 0.5e9, -20.0, 20.0, 1.0), None)

    @pytest.mark.parametrize(
        "coupling_db, groups",
        [
            (((1e9, -14.0), (14e9, -17.0)), 27),  # sloped: every row its own group
            # Flat at -14, -16, then -14 again: two groups, one of them in two runs of rows.
            (((1e9, -14.0), (5e9, -14.0), (5.05e9, -16.0), (10e9, -16.0), (10.05e9, -14.0), (14e9, -14.0)), 2),
        ],
    )
    def test_coupler_tables(self, coupling_db, groups):
        # build_calibration settles one row per distinct (coupling, ripple)
        # pair and reads the others at its settings; the oracle settles every cell.
        cfg = ChainConfig(coupling_kind="coupler", coupler=DirectionalCouplerParams(coupling_db=coupling_db))
        grid = CalibrationGrid(1e9, 14e9, 0.5e9, -20.0, 20.0, 1.0)
        assert len({cfg.coupling_db_at(f) for f in grid.freqs().tolist()}) == groups
        assert_same_build(cfg, grid, None)

    @pytest.mark.parametrize("window", [5, 10])
    def test_narrow_window_oscillation(self, chain, window):
        # The window is narrower than one attenuator step, so the AGC loop
        # can swing between two settings until its step budget runs out.
        ctrl = with_window(chain, window)
        assert_same_build(chain, CalibrationGrid(2e9, 14e9, 2e9, -20.0, 20.0, 0.1), ctrl)

    def test_bundled_tables_are_pinned(self):
        # Both sides of the comparisons above walk the same agc_policy, so a
        # change to that rule would move them together; these digests would not.
        digests = {
            cfg.coupling_kind: table_digest(build_calibration(cfg, default_grid_for(cfg), ctrl))
            for cfg, ctrl in bundled_tables()
        }
        assert digests == {
            "tap": "612d9f21a685029eeb08f3400dfa1b126256a9b7a2badb0a779358687ebfcebb",
            "coupler": "ec64c5c7a3a1406fdf65c7b837a64a70994e4c509c2e8ab4b0a225355f13ac7a",
        }

    @pytest.mark.parametrize(
        "cfg, grid, digest",
        [
            # A rippled tap chain on its default grid: 150 of its 151 rows
            # settled in one block with 2,959 moving cells, so every search
            # round is a round of bisection.
            (
                ChainConfig(gain_ripple=((1e9, -1.5), (6e9, 0.8), (11e9, -0.4), (16e9, -2.0))),
                None,
                "c5a18cddbe992fd222a2f51b3f516dd5a5da7890cdec5f9174988677d2475e42",
            ),
            # A sloped coupler behind 0.5 dB steps, every row settled: on its
            # default grid by bisection (2,700 moving cells), and on 8 rows
            # (164 moving cells) by rounds of three reads a cell.
            (
                ChainConfig(
                    coupling_kind="coupler",
                    coupler=DirectionalCouplerParams(coupling_db=((1e9, -14.0), (14e9, -17.0))),
                    attenuator=AttenuatorParams(0.5, 31.5),
                ),
                None,
                "67d8514c2812ebdbd8fcb54eef124e2d052d06b89c9121c147c8057a077d3bce",
            ),
            (
                ChainConfig(
                    coupling_kind="coupler",
                    coupler=DirectionalCouplerParams(coupling_db=((1e9, -14.0), (14e9, -17.0))),
                    attenuator=AttenuatorParams(0.5, 31.5),
                ),
                CalibrationGrid(1e9, 14e9, 2e9, -20.0, 20.0, 1.0),
                "968117ba2b99dea8debaab9551921106b5fe0de559ad9701060369087fa53053",
            ),
        ],
    )
    def test_tables_that_settle_every_row_are_pinned(self, cfg, grid, digest):
        assert table_digest(build_calibration(cfg, grid)) == digest

    @pytest.mark.parametrize(
        "coupling_kind, grid",
        [
            ("tap", CalibrationGrid(6e9, 7e9, 0.5e9, -60.0, -60.0, 1.0)),  # detector floor
            ("tap", CalibrationGrid(6e9, 7e9, 0.5e9, 45.0, 45.0, 1.0)),  # attenuator exhausted
            ("tap", CalibrationGrid(6e9, 7e9, 0.5e9, -35.0, 42.0, 1.0)),  # both; row order decides
            ("coupler", CalibrationGrid(12e9, 15e9, 1e9, -5.0, 5.0, 5.0)),  # out of band
            ("coupler", CalibrationGrid(13e9, 15e9, 1e9, -60.0, -60.0, 1.0)),  # floor before band edge
        ],
    )
    def test_unservable_grids_raise_the_same_error(self, coupling_kind, grid):
        cfg = ChainConfig(coupling_kind=coupling_kind)
        assert isinstance(outcome(build_calibration_scalar, cfg, grid, None), tuple)
        assert_same_build(cfg, grid, None)


# Power steps that are not whole attenuator steps put the AGC's stopping
# codes anywhere in the window, not on a fixed lattice.
_off_lattice_steps = st.floats(0.05, 2.5).filter(lambda s: abs(s / 0.25 - round(s / 0.25)) > 1e-3)


# The default attenuator, and attenuators whose settings are off the 0.25 dB
# lattice; the top setting of 0.1/12.7 is not 127 * 0.1, and loud cells
# exhaust it.
ATTENUATORS = (
    AttenuatorParams(),
    AttenuatorParams(0.1, 12.7),
    AttenuatorParams(0.3, 30.0),
    AttenuatorParams(0.5, 31.5),
    AttenuatorParams(1.0, 40.0),
)


@settings(max_examples=25, deadline=None)
@given(
    window=st.integers(1, 200),
    p_step=_off_lattice_steps,
    p_start=st.floats(-20.0, 12.0),
    f_start=st.floats(1e9, 12e9),
    attenuator=st.sampled_from(ATTENUATORS),
)
def test_agc_windows_and_power_steps(chain, window, p_step, p_start, f_start, attenuator):
    cfg = replace(chain, attenuator=attenuator)
    ctrl = with_window(cfg, window)
    grid = CalibrationGrid(f_start, f_start + 3e9, 1.5e9, p_start, p_start + 7 * p_step, p_step)
    assert_same_build(cfg, grid, ctrl)


@settings(max_examples=60, deadline=None)
@given(
    attenuator=st.sampled_from(ATTENUATORS),
    window=st.integers(1, 200),
    drawn_codes=st.lists(st.integers(0, 4095), max_size=20),  # the default ADC's codes
)
def test_agc_policy_on_arrays_is_the_scalar_rule_per_element(attenuator, window, drawn_codes):
    # Every setting, including 0 and max_db, against codes on and beside
    # each window edge, at both ends of the ADC range, and drawn ones.
    chain = ChainConfig(attenuator=attenuator)
    ctrl = with_window(chain, window)
    edges = (chain.floor_code, ctrl.agc_low_code, ctrl.agc_high_code)
    codes = [0, chain.adc.full_code, *drawn_codes, *(e + d for e in edges for d in (-1, 0, 1))]
    n = int(round(attenuator.max_db / attenuator.step_db))
    all_settings = [k * attenuator.step_db for k in range(n + 1)] + [attenuator.max_db]
    code_grid, att_grid = np.meshgrid(codes, all_settings)
    got = agc_policy(code_grid, att_grid, ctrl, chain)
    expected = [agc_policy(int(c), float(a), ctrl, chain) for c, a in zip(code_grid.flat, att_grid.flat)]
    assert all(type(x) is float for x in expected)
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert got.tobytes() == np.array(expected).reshape(got.shape).tobytes()


# Tap, coupler and gain-ripple chains; a low amplifier ceiling and a
# 10-bit ADC put more of the drives above the ceiling and off the default codes.
# The rest vary each constant a chain keeps for its read-out: the stub's taps
# (12 and 4 GHz), impedance and permittivity; a 0.05-0.5 V detector that
# clamps at both ends over the drawn powers; a 6-bit ADC, and a 16-bit one
# whose 0.9 V full scale lies below the detector's ceiling.
_READOUT_CHAINS = (
    ChainConfig(),
    ChainConfig(coupling_kind="coupler"),
    ChainConfig(gain_ripple=((1e9, -1.5), (6e9, 0.8), (11e9, -0.4), (16e9, -2.0))),
    ChainConfig(coupling_kind="coupler", gain_ripple=((2e9, 0.5), (12e9, -1.0))),
    ChainConfig(amplifier=AmplifierParams(p_out_sat_dbm=5.0), adc=AdcParams(bits=10)),
    ChainConfig(stub=StubParams(z0s=75.0, taps=(TapSpec("l1", 12e9), TapSpec("l2", 4e9)), eps_eff=2.2)),
    ChainConfig(detector=DetectorParams(slope_a=0.3, intercept_b=0.8, v_in_min=0.05, v_in_max=0.5)),
    ChainConfig(adc=AdcParams(bits=6)),
    ChainConfig(adc=AdcParams(bits=16, v_fs=0.9)),
)


@st.composite
def _readouts(draw):
    """(chain, lines, att_db, forward_ratios): in-domain lines, every setting,
    and now and then a line above the stub band or an invalid setting."""
    cfg = draw(st.sampled_from(_READOUT_CHAINS))
    lo, hi = (1e9, 14e9) if cfg.coupling_kind == "coupler" else (1e6, cfg.stub.taps[0].f_max_hz)
    n = draw(st.integers(1, 40))
    freqs = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    if draw(st.integers(0, 9)) == 0:
        freqs[draw(st.integers(0, n - 1))] = draw(st.floats(cfg.stub.taps[0].f_max_hz, 40e9, exclude_min=True))
    powers = draw(st.lists(st.floats(-60.0, 35.0).map(dbm_to_watts), min_size=n, max_size=n))
    att = 0.25 * draw(st.integers(0, 127))
    if draw(st.integers(0, 9)) == 0:
        att = draw(st.floats(-1.0, 40.0))
    ratios = draw(st.none() | st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    return cfg, list(zip(freqs, powers)), att, ratios


@settings(max_examples=540, deadline=None)
@given(case=_readouts())
def test_readout_matches_scalar_reference(case):
    cfg, lines, att, ratios = case
    got = outcome(chain_voltages_lines, lines, cfg, att, ratios)
    assert got == outcome(chain_voltages_lines_scalar, lines, cfg, att, ratios)
    assert outcome(chain_readout_lines, lines, cfg, att, 1e-6, ratios) == outcome(
        chain_readout_lines_scalar, lines, cfg, att, 1e-6, ratios
    )


_HIGH_GAIN = ChainConfig(amplifier=AmplifierParams(gain_db=60.0))


@pytest.mark.parametrize(
    "cfg, lines, att, ratios",
    [
        # 3082 dBm is 1.58e305 W; 60 dB of gain takes it past the largest float.
        (_HIGH_GAIN, [(8e9, dbm_to_watts(3082.0))], 0.0, None),
        (_HIGH_GAIN, [(8e9, 1e-3), (9e9, dbm_to_watts(3082.0)), (16.5e9, 1e-3)], 0.0, None),
        (_HIGH_GAIN, [(8e9, dbm_to_watts(3082.0))], 31.75, None),
        (_HIGH_GAIN, [(8e9, 1e-3), (9e9, 1e-3)], 0.0, [1.0, 1e160]),
        (_HIGH_GAIN, [(8e9, 1e308)], 0.0, [0.0]),
        (ChainConfig(), [(8e9, 4e307), (9e9, 4e307)], 0.0, None),
        (ChainConfig(coupling_kind="coupler", amplifier=AmplifierParams(gain_db=60.0)), [(9e9, 1e300)], 2.5, None),
    ],
)
def test_high_gain_readout_matches_scalar_reference(cfg, lines, att, ratios):
    got = outcome(chain_readout_lines, lines, cfg, att, 1e-6, ratios)
    assert got == outcome(chain_readout_lines_scalar, lines, cfg, att, 1e-6, ratios)
    assert outcome(chain_voltages_lines, lines, cfg, att, ratios) == outcome(
        chain_voltages_lines_scalar, lines, cfg, att, ratios
    )


def _at_total(cfg, lines, att, ratios, target):
    """lines scaled to a total after the gain of about target, then the last
    line's watts stepped one ulp at a time until that total, summed as the
    chain sums it, is target; None if no float power gives exactly target."""
    gains = [10.0 ** ((cfg.coupling_db_at(f) - att + cfg.amplifier.gain_db + cfg.ripple_db_at(f)) / 10.0)
             for f, _ in lines]
    squares = [1.0] * len(lines) if ratios is None else [r * r for r in ratios]

    def total(powers):
        t = 0.0
        for p_w, g, r2 in zip(powers, gains, squares):
            t += p_w * g * r2
        return t

    k = target / total([p_w for _, p_w in lines])
    powers = [p_w * k for _, p_w in lines]
    while total(powers) < target:
        powers[-1] = math.nextafter(powers[-1], math.inf)
    while total(powers) > target:
        powers[-1] = math.nextafter(powers[-1], 0.0)
    return [(f, p_w) for (f, _), p_w in zip(lines, powers)] if total(powers) == target else None


@pytest.mark.parametrize("cfg", [ChainConfig(), ChainConfig(coupling_kind="coupler")], ids=["tap", "coupler"])
@pytest.mark.parametrize(
    "lines",
    [[(8e9, 1e-3)], list(SignalDescriptor((Tone(freq_hz=8e9, power_dbm=0.0, occupied_bw_hz=12e6),)).lines)],
    ids=["1_line", "31_lines"],
)
@pytest.mark.parametrize("with_ratios", [False, True], ids=["no_ratios", "ratios"])
@pytest.mark.parametrize("ulps", [-1, 0, 1], ids=["below", "on", "above"])
def test_readout_at_the_amplifier_ceiling_matches_scalar_reference(cfg, lines, with_ratios, ulps, monkeypatch):
    # The total after the gain one ulp below, exactly on and one ulp above
    # the ceiling: the readout sums the lines itself on both sides, and
    # above the ceiling scales its sums without calling tap_rms_voltages.
    sat_w = cfg._sat_w
    target = sat_w if ulps == 0 else math.nextafter(sat_w, ulps * math.inf)
    ratios = [0.9 + 0.01 * i for i in range(len(lines))] if with_ratios else None
    # Not every setting's gain reaches the exact total from a float power.
    for att in (0.25 * k for k in range(128)):
        edge = _at_total(cfg, lines, att, ratios, target)
        if edge is not None:
            break
    assert edge is not None
    calls = []
    stub_sum = swsense.readout.tap_rms_voltages
    monkeypatch.setattr(swsense.readout, "tap_rms_voltages", lambda *a: calls.append(1) or stub_sum(*a))
    assert chain_readout_lines(edge, cfg, att, 1e-6, ratios) == chain_readout_lines_scalar(edge, cfg, att, 1e-6, ratios)
    assert chain_voltages_lines(edge, cfg, att, ratios) == chain_voltages_lines_scalar(edge, cfg, att, ratios)
    assert calls == []


# The chains whose readouts above the amplifier ceiling are checked against
# the two-pass readout: tap, coupler, rippled, a low ceiling, and high gain
# under a low ceiling.
_CEILING_CHAINS = (
    ChainConfig(),
    ChainConfig(coupling_kind="coupler"),
    _READOUT_CHAINS[2],
    ChainConfig(amplifier=AmplifierParams(p_out_sat_dbm=5.0)),
    ChainConfig(amplifier=AmplifierParams(gain_db=35.0, p_out_sat_dbm=10.0)),
)


@pytest.mark.parametrize("cfg", _CEILING_CHAINS, ids=["tap", "coupler", "ripple", "sat_5dbm", "gain_35db_sat_10dbm"])
def test_codes_above_the_amplifier_ceiling_match_the_two_pass_readout(cfg):
    # Scaling the three sums to the ceiling moves a voltage by a few ulps
    # from scaling each line's watts and summing them again; no code moves.
    rng = np.random.default_rng(7)
    n = 8000
    lo, hi = max(cfg.band_hz[0], 1e6), cfg.band_hz[1]
    atts = 0.25 * rng.integers(0, 128, n)
    # Each readout's total after the gain lies 0.01 to 35 dB above the ceiling.
    totals = cfg._sat_w * 10.0 ** (rng.uniform(0.01, 35.0, n) / 10.0)

    def gain(f, att):
        return 10.0 ** ((cfg.coupling_db_at(f) - att + cfg.amplifier.gain_db + cfg.ripple_db_at(f)) / 10.0)

    # 1, 2, 3 or 31 lines sharing the total at random; half the readouts carry forward ratios.
    counts = rng.choice([1, 2, 3, 31], n, p=[0.3, 0.3, 0.3, 0.1])
    with_ratios = rng.random(n) < 0.5
    freqs, shares, ratios = (rng.uniform(a, b, counts.sum()) for a, b in ((lo, hi), (0.0, 1.0), (0.05, 2.0)))
    for k, end in enumerate(np.cumsum(counts)):
        i = slice(end - counts[k], end)
        r = ratios[i] if with_ratios[k] else np.ones(counts[k])
        powers = totals[k] * shares[i] / shares[i].sum() / (gain(freqs[i], atts[k]) * r * r)
        lines, r = list(zip(freqs[i].tolist(), powers.tolist())), r.tolist() if with_ratios[k] else None
        got = chain_readout_lines(lines, cfg, atts[k], 0.0, r)
        assert got == chain_readout_lines_two_pass(lines, cfg, atts[k], 0.0, r), (k, lines, atts[k], r)
    # One line a cell: chain_codes_cw caps the watts at the ceiling, and
    # reads the scalar chain's codes.
    m = 2000
    f = rng.uniform(lo, hi, m)
    p_dbm = 10.0 * np.log10(totals[:m] / 1e-3 / gain(f, atts[:m]))
    codes = chain_codes_cw(f, p_dbm, atts[:m], cfg)
    for k in range(m):
        ref = chain_readout_lines([(f[k], dbm_to_watts(p_dbm[k]))], cfg, atts[k])
        assert (codes[0][k], codes[1][k], codes[2][k]) == (ref.code_oc, ref.code_l1, ref.code_l2), (k, f[k], p_dbm[k])


class TestChainCodesCw:
    def test_matches_scalar_readout_at_code_boundaries(self, chain):
        # Powers whose open-end level lands within a few ulps of a code
        # boundary, where a last-bit difference in log10 would move the code.
        f, det, adc = 8e9, chain.detector, chain.adc
        gain_db = chain.coupling_db_at(f) + chain.amplifier.gain_db
        powers = []
        for k in range(800, 3050, 25):
            v = 10.0 ** ((k * adc.lsb - det.intercept_b) / det.slope_a)
            p_w = v * v / (8.0 * chain.stub.z0s) / 10.0 ** (gain_db / 10.0)
            p_dbm = 10.0 * math.log10(p_w / 1e-3)
            powers += [p_dbm + n * abs(p_dbm) * 2.2e-16 for n in range(-6, 7)]
        codes = chain_codes_cw(np.array([f]), np.array(powers), np.array([0.0]), chain)
        for n, p in enumerate(powers):
            ref = chain_readout_lines([(f, dbm_to_watts(p))], chain, 0.0)
            assert (codes[0][n], codes[1][n], codes[2][n]) == (
                ref.code_oc, ref.code_l1, ref.code_l2
            ), p

    def test_broadcast_shape_and_att_check(self, chain):
        codes = chain_codes_cw(
            np.array([2e9, 9e9])[:, None, None], np.array([-5.0, 5.0])[None, :, None],
            np.array([0.0, 0.25, 31.75]), chain,
        )
        assert all(c.shape == (2, 2, 3) for c in codes)
        with pytest.raises(ValueError, match="att_db=0.3"):
            chain_codes_cw(np.array([2e9]), np.array([0.0]), np.array([0.0, 0.3]), chain)

    def test_out_of_band_coupler_frequency(self):
        with pytest.raises(OutOfBandError):
            chain_codes_cw(np.array([8e9, 15e9]), np.array([0.0]), np.array([0.0]),
                           ChainConfig(coupling_kind="coupler"))

    @settings(max_examples=120, deadline=None)
    @given(cfg=st.sampled_from(_READOUT_CHAINS[:4]), data=st.data())
    def test_lookups_on_arrays_are_the_scalar_calls(self, cfg, data):
        # The chain answers its per-frequency lookups for a whole array, as
        # chain_codes_cw asks them; each element is the scalar call's, bit for bit.
        lo, hi = (1e9, 14e9) if cfg.coupling_kind == "coupler" else (1e6, 40e9)
        n = data.draw(st.integers(1, 12))
        f = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
        f = f.reshape(data.draw(st.sampled_from([(n,), (n, 1), (1, n)])))
        lookups = (cfg.coupling_db_at, cfg.through_loss_db_at, cfg.directivity_db_at, cfg.ripple_db_at)
        for at in lookups:
            got = np.broadcast_to(np.asarray(at(f), dtype=float), f.shape)
            assert got.tobytes() == np.array([at(x) for x in f.ravel().tolist()]).reshape(f.shape).tobytes()
        if cfg.coupling_kind == "coupler":
            # Out of the coupler band, the first offender in C order is named
            # as the scalar call names it.
            k = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
            f.flat[k] = data.draw(st.lists(st.sampled_from([0.5e9, 14.5e9, 15.9e9, math.nan]), min_size=len(k),
                                           max_size=len(k)))
            for at in lookups[:3]:
                expected = outcome(at, float(f.flat[k[0]]))
                assert expected[0] is OutOfBandError and outcome(at, f) == expected

    @settings(max_examples=150, deadline=None)
    @given(cfg=st.sampled_from(_READOUT_CHAINS[:4]), data=st.data())
    def test_cell_breaking_two_rules_raises_the_first(self, cfg, data):
        # The rules in the order both entry points check them: the tone's
        # domain, the coupler band, the attenuator setting, then the watts
        # after the gain. Each is (the input it breaks, values that break it).
        cfg = replace(cfg, amplifier=AmplifierParams(gain_db=300.0))
        rules = [
            ("f", [math.nan, -8e9, 0.0, math.inf]),
            ("p", [math.nan, math.inf, -math.inf]),
            ("p", [4000.0]),  # watts overflow a float
            ("f", [cfg.stub.taps[0].f_max_hz * 1.01]),
            *([("f", [0.5e9, 15e9])] if cfg.coupling_kind == "coupler" else []),
            ("att", [0.3, -0.25, 40.0, math.nan]),
            ("p", [3000.0]),  # watts overflow a float after the 300 dB gain
        ]
        i, j = sorted(data.draw(st.lists(st.integers(0, len(rules) - 1), min_size=2, max_size=2, unique=True)))
        assume(rules[i][0] != rules[j][0])
        good = {"f": 8e9, "p": 0.0, "att": 0.0}
        first, both = dict(good), dict(good)
        first[rules[i][0]] = both[rules[i][0]] = data.draw(st.sampled_from(rules[i][1]))
        both[rules[j][0]] = data.draw(st.sampled_from(rules[j][1]))
        # One bad cell after a good one, read by both entry points.
        cells = {k: np.array([good[k], v]) for k, v in both.items()}
        expected = outcome(chain_codes_cw, first["f"], first["p"], first["att"], cfg)
        assert isinstance(expected, tuple) and issubclass(expected[0], (ValueError, OutOfBandError))
        assert outcome(chain_codes_cw, cells["f"], cells["p"], cells["att"], cfg) == expected
        assert outcome(settle_cw, cells["f"], cells["p"], cfg, ControllerConfig(), cells["att"]) == expected


@pytest.mark.parametrize("cfg", _READOUT_CHAINS)
def test_code_dbm_is_the_scalar_conversion_per_code(cfg):
    # Every code, as a Python int and as the numpy integers a reading may carry.
    ref = np.array([_code_to_stub_dbm(code, cfg) for code in range(cfg.adc.full_code + 1)])
    for kind in (int, np.int64, np.int32, np.uint16):
        got = np.array([_code_dbm(kind(code), cfg) for code in range(cfg.adc.full_code + 1)])
        assert got.tobytes() == ref.tobytes(), kind


def test_stub_dbm_refuses_a_code_with_no_power():
    # A steep detector puts code 0 at 10 ** -1000 V, which is 0.0 W, and
    # watts_to_dbm refuses it in both; a table for that chain is refused
    # when it is made, whatever codes its grid holds.
    cfg = ChainConfig(detector=DetectorParams(slope_a=0.001))
    with pytest.raises(ValueError, match=r"^power must be positive, got 0\.0 W$"):
        _code_to_stub_dbm(0, cfg)
    cal = build_calibration(ChainConfig(), CalibrationGrid(8e9, 8e9, 1e9, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match=r"^power must be positive, got 0\.0 W$"):
        replace(cal, cfg=cfg)
    # With no intercept, code 0 is 1 V, and full_code's volts overflow a float.
    cfg = ChainConfig(detector=DetectorParams(slope_a=0.004, intercept_b=0.0))
    with pytest.raises(OverflowError):
        _code_to_stub_dbm(cfg.adc.full_code, cfg)
    with pytest.raises(OverflowError):
        replace(cal, cfg=cfg)


# ATTENUATORS, and ladders whose max_db is only within valid_setting's
# tolerance of a whole number of steps: above it the walk takes one more
# step, from n * step_db to max_db; below it the top step lands on max_db.
_SETTLE_ATTENUATORS = ATTENUATORS + (
    AttenuatorParams(0.25, 31.7500001),
    AttenuatorParams(0.3, 29.7000002),
    AttenuatorParams(0.25, 31.7499999),
    AttenuatorParams(0.1, 12.70000005),
)


@settings(max_examples=150, deadline=None)
@given(
    cfg=st.sampled_from(_READOUT_CHAINS[:3]),
    attenuator=st.sampled_from(_SETTLE_ATTENUATORS),
    window=st.one_of(st.just(150), st.integers(1, 60)),
    data=st.data(),
    n_f=st.integers(1, 4),
    n_p=st.integers(1, 4),
    probe_cells=st.sampled_from(["default", "n - 1", "n", "n + 1", "2n", "3n + 1", "1"]),
)
def test_settle_cw_is_the_scalar_walk_per_cell(cfg, attenuator, window, data, n_f, n_p, probe_cells):
    # Tap, coupler and rippled chains; frequencies across the band (the
    # coupler's is narrower), powers from below the detector floor to past
    # the attenuator's reach, and a start setting per cell: a whole number
    # of steps, one 1e-8 dB off it, or max_db. A window narrower than a
    # step leaves cells swinging between two settings, walked both up and
    # down into it. The cells a search round reads, _PROBE_CELLS, is set
    # against the n cells the policy moves at att0: below, at and above n,
    # a round is bisection, one read a cell; from 2n up it reads several
    # settings of each cell, and the default reads a small block's whole
    # runs at once.
    cfg = replace(cfg, attenuator=attenuator)
    step, max_db = attenuator.step_db, attenuator.max_db
    lo, hi = (1e9, 14e9) if cfg.coupling_kind == "coupler" else (1e6, cfg.stub.taps[0].f_max_hz)
    freqs = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n_f, max_size=n_f)))[:, None]
    powers = np.array(data.draw(st.lists(st.floats(-45.0, 50.0), min_size=n_p, max_size=n_p)))
    n_set = int(round(max_db / step))
    starts = data.draw(
        st.lists(st.tuples(st.integers(0, n_set), st.sampled_from(["exact", "off", "top"])),
                 min_size=n_f * n_p, max_size=n_f * n_p)
    )
    att0 = np.array(
        [max_db if how == "top" else min(k * step, max_db) + (1e-8 if how == "off" and k < n_set else 0.0)
         for k, how in starts]
    ).reshape(n_f, n_p)
    ctrl = with_window(cfg, window)
    n = int(np.count_nonzero(agc_policy(chain_codes_cw(freqs, powers, att0, cfg)[0], att0, ctrl, cfg) != att0))
    per_round = {"n - 1": n - 1, "n": n, "n + 1": n + 1, "2n": 2 * n, "3n + 1": 3 * n + 1, "1": 1}
    with mock.patch.object(
        swsense.controller, "_PROBE_CELLS", max(1, per_round.get(probe_cells, swsense.controller._PROBE_CELLS))
    ):
        oc, l1, l2, att = settle_cw(freqs, powers, cfg, ctrl, att0)
    assert all(a.shape == (n_f, n_p) for a in (oc, l1, l2, att))
    for i, j in np.ndindex(n_f, n_p):
        ref, a = settle_ref(freqs[i, 0], powers[j], cfg, ctrl, att0[i, j])
        assert (oc[i, j], l1[i, j], l2[i, j], att[i, j]) == (ref.code_oc, ref.code_l1, ref.code_l2, a)
    # Each cell is a fixed point of agc_policy, at max_db, or swings: one
    # more step and read, and the policy sends it back.
    nxt = agc_policy(oc, att, ctrl, cfg)
    for i, j in np.argwhere((nxt != att) & (att != max_db)).tolist():
        back = chain_codes_cw(freqs[i, 0], powers[j], nxt[i, j], cfg)[0]
        assert agc_policy(int(back), float(nxt[i, j]), ctrl, cfg) == att[i, j]


def _triples(cfg, rng, n):
    """Seeded acquisitions: readouts over the band at random settings, raw
    code triples, and triples at the floor, ceiling and overrange corners."""
    full, floor, ceiling = cfg.adc.full_code, cfg.floor_code, cfg.ceiling_code
    n_set = int(round(cfg.attenuator.max_db / cfg.attenuator.step_db))
    max_db = cfg.attenuator.max_db
    band = default_grid_for(cfg)
    out = []
    for i in range(n):
        att = float(rng.integers(0, n_set + 1)) * cfg.attenuator.step_db
        kind = i % 4
        if kind == 0:
            f = float(rng.uniform(band.f_start_hz, band.f_stop_hz))
            sig = SignalDescriptor((Tone(freq_hz=f, power_dbm=float(rng.uniform(-30.0, 30.0))),))
            out.append(chain_readout(sig, cfg, att))
            continue
        if kind == 1:
            oc, l1, l2 = (int(x) for x in rng.integers(0, full + 1, 3))
        elif kind == 2:
            oc = int(rng.integers(floor - 3, floor + 3))
            l1, l2 = (int(x) for x in rng.integers(floor - 3, ceiling + 3, 2))
        else:
            oc = int(rng.integers(ceiling - 2, full + 1))
            l1, l2 = (int(x) for x in rng.integers(ceiling - 40, full + 1, 2))
            att = max_db if rng.random() < 0.5 else att
        out.append(TapCodes(0.0, oc, l1, l2, att))
    return out


@pytest.mark.parametrize("switch", [None, 6e9])
def test_estimates_match_scalar_estimator(chain, calibration, switch):
    rng = np.random.default_rng(0 if switch is None else 7)
    results = set()
    for codes in _triples(chain, rng, 1000):
        got = outcome(estimate, codes, calibration, switch)
        assert got == outcome(estimate_scalar, codes, calibration, switch), codes
        results.add(got[0].__name__ if isinstance(got, tuple) else got.confidence)
    # Every path of the estimator was taken.
    assert results >= {
        "in-range", "clamped", "saturated",
        "NoSignalError", "IndeterminateFrequencyError", "PowerOverrangeError",
    }


def test_estimates_match_scalar_estimator_on_coupler_table():
    cfg = ChainConfig(coupling_kind="coupler")
    cal = build_calibration(cfg, default_grid_for(cfg))
    for codes in _triples(cfg, np.random.default_rng(11), 400):
        assert outcome(estimate, codes, cal) == outcome(estimate_scalar, codes, cal), codes


def test_memoised_fronts_answer_as_a_fresh_table(chain, calibration):
    # Two passes over one table, each in its own shuffled order, so the memo
    # holds different fronts when each triple comes round.
    cal, fresh = replace(calibration), replace(calibration)
    triples = _triples(chain, np.random.default_rng(3), 400)
    rng = np.random.default_rng(4)
    for _ in range(2):
        for i in rng.permutation(len(triples)):
            codes = triples[i]
            for memo in fresh.fronts:
                memo.clear()
            fresh.shared_fronts.clear()
            got = outcome(estimate, codes, cal)
            assert got == outcome(estimate, codes, fresh), codes
            assert got == outcome(estimate_scalar, codes, calibration), codes


def test_fronts_are_built_once_within_the_key_bound(chain, calibration):
    cal = replace(calibration)
    triples = _triples(chain, np.random.default_rng(5), 1000)
    floor, full = chain.floor_code, chain.adc.full_code

    def stored():
        return [{code: id(front) for code, front in memo.items()} for memo in cal.fronts]

    for codes in triples:
        outcome(estimate, codes, cal)
    first = stored()
    for codes in triples:
        outcome(estimate, codes, cal)
    assert stored() == first
    keys = [code for memo in cal.fronts for code in memo]
    assert all(floor < code <= full for code in keys)
    assert len(keys) <= 2 * (full - floor)
    # Equal fronts are one object: as many objects as distinct fronts.
    shared = {id(front): front for memo in cal.fronts for front in memo.values() if front}
    assert len(shared) == len(cal.shared_fronts) < len(keys)
    fronts = list(shared.values())
    for a, b in ((a, b) for i, a in enumerate(fronts) for b in fronts[i + 1:]):
        assert not (np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3]))


# The reference state's pending_mode for each mode that has a pending time.
_SETTLES_TO = {MODE_ENGAGING: MODE_ENGAGED, MODE_RELEASING: MODE_IDLE}


def _acquisitions(cfg):
    """Per sample, a CW line read at the controller's setting, an in-range triple, or the last codes again."""
    floor, ceiling = cfg.floor_code, cfg.ceiling_code
    band = default_grid_for(cfg)
    readout = st.tuples(st.just("readout"), st.floats(max(1e9, band.f_start_hz), min(16e9, band.f_stop_hz)),
                        st.floats(-30.0, 35.0))
    code = st.integers(floor, ceiling) | st.sampled_from((floor, ceiling))
    # Equal codes too: the fine tap, or both taps, at the open-end code.
    triple = st.tuples(code, code, code, st.sampled_from(("none", "l2", "both"))).map(
        lambda c: ("triple", c[0], c[0] if c[3] == "both" else c[1], c[2] if c[3] == "none" else c[0])
    )
    return readout | triple, readout | triple | st.just(("repeat",))


@st.composite
def _controller_cases(draw):
    """(chain, controller config, start state fields, acquisitions, time steps in clock periods)."""
    cfg = draw(st.sampled_from((ChainConfig(), ChainConfig(coupling_kind="coupler"))))
    clock = draw(st.floats(1e-9, 1e-6))
    ctrl = replace(
        ControllerConfig.for_chain(cfg),
        threshold_dbm=draw(st.floats(-30.0, 30.0)),
        retune_deadband_hz=draw(st.floats(0.0, 2e9)),
        clock_period=clock,
        switch_freq_hz=draw(st.none() | st.floats(2e9, 12e9)),
    )
    # A state that on_sample produces: a pending time only on a transitional
    # mode, a tuned frequency only while the notch is engaged or engaging.
    mode = draw(st.sampled_from((MODE_IDLE, MODE_ENGAGING, MODE_ENGAGED, MODE_RELEASING)))
    start = dict(
        mode=mode,
        att_db=cfg.attenuator.step_db * draw(st.integers(0, 127)),
        tuned_freq_hz=draw(st.floats(1e9, 16e9)) if mode in (MODE_ENGAGING, MODE_ENGAGED) else None,
        pending_at_s=1e-6 + clock * draw(st.sampled_from((-1.0, 0.0, 1.0))) if mode in _SETTLES_TO else None,
        freeze_samples=draw(st.integers(0, 1)),
    )
    first, later = _acquisitions(cfg)
    acquisitions = [draw(first)] + draw(st.lists(later, max_size=39))
    steps = draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)), min_size=len(acquisitions), max_size=len(acquisitions)))
    return cfg, ctrl, start, acquisitions, steps


@pytest.fixture(scope="module")
def tables(calibration):
    """The table of each chain _controller_cases draws, by coupling kind."""
    coupler = ChainConfig(coupling_kind="coupler")
    return {"tap": calibration, "coupler": build_calibration(coupler, default_grid_for(coupler))}


def _observed(state):
    return (
        state.mode, state.att_db, state.tuned_freq_hz, state.pending_at_s,
        state.freeze_samples, state.last_estimate, state.diagnostic,
    )


@settings(max_examples=300, deadline=None)
@given(case=_controller_cases())
def test_controller_matches_reference(tables, case):
    """Sample sequences give the reference controller's actions, and its state after every sample."""
    cfg, ctrl, start, acquisitions, steps = case
    cal = tables[cfg.coupling_kind]
    state = ControllerState(**start)
    ref = ControllerStateRef(pending_mode=_SETTLES_TO.get(start["mode"]), **start)
    t, codes = 1e-6, None
    for acq, step in zip(acquisitions, steps):
        if acq[0] == "readout":
            codes = chain_readout_lines([(acq[1], dbm_to_watts(acq[2]))], cfg, state.att_db, t_s=t)
        elif acq[0] == "triple":
            codes = TapCodes(t, *acq[1:], state.att_db)
        else:
            codes = TapCodes(t, codes.code_oc, codes.code_l1, codes.code_l2, state.att_db)
        state, actions = on_sample(codes, state, ctrl, cal)
        ref, ref_actions = on_sample_ref(codes, ref, ctrl, cfg, cal)
        assert actions == ref_actions
        assert _observed(state) == _observed(ref)
        t += ctrl.clock_period * step
