"""Scalar reference implementations that the array code is checked against.

settle_ref is the gain-control walk of one CW cell, one chain_readout
call per AGC step, and build_calibration_scalar runs it per cell. estimate_scalar is the estimator that derives
everything from the table on every call. chain_voltages_lines_scalar and
chain_readout_lines_scalar are the read-out chain that derives every
constant of the config (ADC step, tap coupling, amplifier ceiling, tap
f_max) on every call. on_sample_ref is the controller with a pending_mode
field and a code check in each of its branches. Each is kept as it was
written before the array build, the precomputed inverse, the config
constants and the one decision path replaced it; the tests require the
library to reproduce them bit for bit. chain_voltages_lines_scalar has
since gained the library's refusal of a line, or a sum of lines, whose
watts overflow a float after the gain, and of a stub drive whose
standing-wave sum overflows, with the same messages, and its
amplifier ceiling scales the three standing-wave sums, as the library's
does. chain_readout_lines_two_pass keeps the ceiling as it was written
before, each line's watts scaled and then summed; the tests require the
library's codes above the ceiling to match it.
floor_code_ref and ceiling_code_ref give a chain's detector range in
codes from the oracle's own law and quantizer, which every function here
reads instead of the chain's floor_code and ceiling_code; reads_two_codes
says whether a detector and an ADC make a range a chain accepts.
estimate_power_scalar keeps the old
edge extrapolation along the first or last pair of columns, which divides
by zero on a row whose edge columns share a level; the library takes the
nearest column whose level differs and refuses a row with a single level,
so the two agree on every table without such a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
    agc_policy,
)
from swsense.core import SignalDescriptor, Tone, watts_to_dbm
from swsense.errors import (
    CalibrationRangeError,
    IndeterminateFrequencyError,
    NoSignalError,
    OutOfBandError,
    PowerOverrangeError,
    SwsenseError,
)
from swsense.estimator import (
    CONF_CLAMPED,
    CONF_IN_RANGE,
    CONF_SATURATED,
    CalibrationGrid,
    CalibrationTable,
    Estimate,
    check_codes,
    estimate,
)
from swsense.coupling import coupler_db_at, tap_coupling
from swsense.readout import (
    TapCodes,
    chain_readout,
)
from swsense.stub import wrapped_ratio


def settle_ref(f, p, cfg, ctrl, att0=0.0) -> tuple[TapCodes, float]:
    """One CW cell's gain-control walk from att0, one chain_readout per step; returns (codes, att)."""
    sig = SignalDescriptor((Tone(freq_hz=float(f), power_dbm=float(p)),))
    a = float(att0)
    codes = chain_readout(sig, cfg, a)
    for _ in range(int(round(cfg.attenuator.max_db / cfg.attenuator.step_db)) + 2):
        a_next = agc_policy(codes.code_oc, a, ctrl, cfg)
        if a_next == a:
            break
        a = a_next
        codes = chain_readout(sig, cfg, a)
    return codes, a


def build_calibration_scalar(cfg, grid=None, ctrl=None) -> CalibrationTable:
    grid = grid or CalibrationGrid()
    ctrl = ctrl or ControllerConfig.for_chain(cfg)
    freqs = grid.freqs()
    powers = grid.powers()
    nf, npow = len(freqs), len(powers)
    att = np.zeros((nf, npow))
    oc = np.zeros((nf, npow), dtype=int)
    l1 = np.zeros((nf, npow), dtype=int)
    l2 = np.zeros((nf, npow), dtype=int)
    floor = floor_code_ref(cfg)

    for i, f in enumerate(freqs):
        for j, p in enumerate(powers):
            try:
                codes, a = settle_ref(f, p, cfg, ctrl)
            except OutOfBandError as exc:
                raise CalibrationRangeError(str(exc)) from exc
            if codes.code_oc <= floor:
                raise CalibrationRangeError(
                    f"open-end reading at detector floor for {f / 1e9:.2f} GHz, {p:.1f} dBm"
                )
            if codes.code_oc > ctrl.agc_high_code and a >= cfg.attenuator.max_db:
                raise CalibrationRangeError(
                    f"attenuator exhausted holding {f / 1e9:.2f} GHz, {p:.1f} dBm"
                )
            att[i, j] = a
            oc[i, j] = codes.code_oc
            l1[i, j] = codes.code_l1
            l2[i, j] = codes.code_l2

    return CalibrationTable(
        freqs_hz=freqs,
        powers_dbm=powers,
        att_db=att,
        code_oc=oc,
        code_l1=l1,
        code_l2=l2,
        cfg=cfg,
    )


def _code_to_stub_dbm(code, cfg) -> float:
    v_det = code * cfg.adc.lsb
    v = 10.0 ** ((v_det - cfg.detector.intercept_b) / cfg.detector.slope_a)
    return watts_to_dbm(v * v / (8.0 * cfg.stub.z0s))


def _refine_against_table(f_closed_hz, delta_obs, code_oc_obs, tap_idx, f_limit_hz, cal):
    code_tap = (cal.code_l1, cal.code_l2)[tap_idx]
    floor = floor_code_ref(cal.cfg)
    usable = cal.freqs_hz <= f_limit_hz * (1.0 + 1e-12)
    if usable.sum() < 2:
        return f_closed_hz
    freqs = cal.freqs_hz[usable]
    j_star = np.abs(cal.code_oc[usable] - code_oc_obs).argmin(axis=1)
    rows = np.arange(usable.sum())
    deltas = code_tap[usable][rows, j_star] - cal.code_oc[usable][rows, j_star]
    taps_ok = code_tap[usable][rows, j_star] > floor
    keep_f, keep_d = [], []
    for f, dlt, ok in zip(freqs, deltas, taps_ok):
        if not ok:
            continue
        if keep_d and dlt >= keep_d[-1]:
            continue
        keep_f.append(f)
        keep_d.append(dlt)
    if len(keep_d) < 2 or not keep_d[-1] <= delta_obs <= keep_d[0]:
        return f_closed_hz
    d_arr = -np.asarray(keep_d, dtype=float)
    f_arr = np.asarray(keep_f)
    refined = float(np.interp(-float(delta_obs), d_arr, f_arr))
    grid_step = float(cal.freqs_hz[1] - cal.freqs_hz[0]) if len(cal.freqs_hz) > 1 else 0.0
    if grid_step and abs(refined - f_closed_hz) > 2.0 * grid_step:
        return f_closed_hz
    return refined


def estimate_frequency_scalar(codes, cal, switch_freq_hz=None):
    cfg = cal.cfg
    det, adc = cfg.detector, cfg.adc
    floor = floor_code_ref(cfg)
    ceiling = ceiling_code_ref(cfg)
    if codes.code_oc <= floor:
        raise NoSignalError("open-end reading at detector floor")
    if codes.code_l1 >= ceiling and codes.code_l2 >= ceiling:
        raise IndeterminateFrequencyError("both tap detectors saturated")

    taps = cfg.stub.taps
    switch = switch_freq_hz if switch_freq_hz is not None else taps[1].f_max_hz
    conf = CONF_SATURATED if codes.code_oc >= ceiling else CONF_IN_RANGE
    v_det_oc = codes.code_oc * adc.lsb

    def invert(code_tap, tap_idx):
        f_max = taps[tap_idx].f_max_hz
        raw = 10.0 ** ((code_tap * adc.lsb - v_det_oc) / det.slope_a)
        clamped = raw > 1.0 or code_tap <= floor
        ratio = min(max(raw, 0.0), 1.0)
        f_cf = 2.0 * f_max / math.pi * math.acos(ratio)
        f = _refine_against_table(
            f_cf, code_tap - codes.code_oc, codes.code_oc, tap_idx, f_max, cal
        )
        return f, clamped

    f1, clamped1 = invert(codes.code_l1, 0)
    if f1 >= switch:
        if clamped1 and conf == CONF_IN_RANGE:
            conf = CONF_CLAMPED
        return f1, taps[0].name, conf
    f2, clamped2 = invert(codes.code_l2, 1)
    if f2 >= switch:
        return switch, taps[0].name, CONF_CLAMPED if conf == CONF_IN_RANGE else conf
    if clamped2 and conf == CONF_IN_RANGE:
        conf = CONF_CLAMPED
    return f2, taps[1].name, conf


def estimate_power_scalar(codes, freq_hz, cal):
    cfg = cal.cfg
    floor = floor_code_ref(cfg)
    ceiling = ceiling_code_ref(cfg)
    if codes.code_oc <= floor:
        raise NoSignalError("open-end reading at detector floor")
    if codes.code_oc >= ceiling and codes.att_db >= cfg.attenuator.max_db:
        raise PowerOverrangeError("open-end saturated with attenuator at maximum")

    i0 = int(np.abs(cal.freqs_hz - freq_hz).argmin())
    s_row = np.array(
        [
            _code_to_stub_dbm(int(c), cfg) + a
            for c, a in zip(cal.code_oc[i0], cal.att_db[i0])
        ]
    )
    s_obs = _code_to_stub_dbm(codes.code_oc, cfg) + codes.att_db
    p_row = cal.powers_dbm.astype(float)
    if s_obs <= s_row[0]:
        k = (p_row[1] - p_row[0]) / (s_row[1] - s_row[0])
        return float(p_row[0] + k * (s_obs - s_row[0]))
    if s_obs >= s_row[-1]:
        k = (p_row[-1] - p_row[-2]) / (s_row[-1] - s_row[-2])
        return float(p_row[-1] + k * (s_obs - s_row[-1]))
    return float(np.interp(s_obs, s_row, p_row))


def estimate_scalar(codes, cal, switch_freq_hz=None) -> Estimate:
    f, tap_used, conf = estimate_frequency_scalar(codes, cal, switch_freq_hz)
    p = estimate_power_scalar(codes, f, cal)
    return Estimate(freq_hz=f, power_dbm=p, tap_used=tap_used, confidence=conf)


def _coupling_db_at(cfg, f_hz) -> float:
    if cfg.coupling_kind == "tap":
        return tap_coupling(cfg.tap)
    return coupler_db_at(cfg.coupler, "coupling_db", f_hz)


def _tap_rms_squares(expanded, stub):
    oc_sq = 0.0
    tap_sq = [0.0] * len(stub.taps)
    for f_hz, p_w in expanded:
        if p_w < 0.0:
            raise ValueError("per-line stub power must be >= 0")
        v_sq = 8.0 * p_w * stub.z0s
        oc_sq += v_sq
        for i, tap in enumerate(stub.taps):
            r = wrapped_ratio(f_hz, tap.f_max_hz)
            tap_sq[i] += v_sq * r * r
    return oc_sq, tap_sq


def _detector_voltage(v_rms, det) -> float:
    if v_rms < 0.0:
        raise ValueError("detector input voltage must be >= 0")
    v = min(max(v_rms, det.v_in_min), det.v_in_max)
    return det.slope_a * math.log10(v) + det.intercept_b


def _adc_sample(v, adc) -> int:
    lsb = adc.v_fs / 2**adc.bits
    full_code = 2**adc.bits - 1
    return min(max(int(math.floor(v / lsb)), 0), full_code)


def floor_code_ref(cfg) -> int:
    """The code of a detector input at (or below) its floor."""
    return _adc_sample(_detector_voltage(0.0, cfg.detector), cfg.adc)


def ceiling_code_ref(cfg) -> int:
    """The code of a detector input pinned at its ceiling."""
    return _adc_sample(_detector_voltage(cfg.detector.v_in_max, cfg.detector), cfg.adc)


def reads_two_codes(detector, adc) -> bool:
    """Whether the detector's range quantizes to at least two ADC codes, which a chain needs."""
    floor, ceiling = (_adc_sample(_detector_voltage(v, detector), adc) for v in (0.0, detector.v_in_max))
    return floor < ceiling


def _drive(lines, cfg, att_db, forward_ratios):
    """Each line's (freq_hz, watts after the gain), their total, and the amplifier ceiling in watts."""
    cfg.attenuator.check_setting(att_db)
    drive = []
    total_w = 0.0
    for i, (f_hz, p_w) in enumerate(lines):
        cfg.check_band(f_hz)
        g_db = (
            _coupling_db_at(cfg, f_hz)
            - att_db
            + cfg.amplifier.gain_db
            + cfg.ripple_db_at(f_hz)
        )
        p = p_w * 10.0 ** (g_db / 10.0)
        if forward_ratios is not None:
            r = forward_ratios[i]
            p *= r * r
        if not p < math.inf:
            raise ValueError(f"line {i} at {f_hz / 1e9:.3f} GHz: power {p_w!r} W overflows a float after the gain")
        drive.append((f_hz, p))
        total_w += p
    if total_w == math.inf:
        raise ValueError(f"the {len(drive)} lines' total power after the gain overflows a float")
    return drive, total_w, 10.0 ** (cfg.amplifier.p_out_sat_dbm / 10.0) * 1e-3


def _codes(v_oc, v1, v2, cfg, att_db, t_s) -> TapCodes:
    adc = cfg.adc
    return TapCodes(
        t_s=t_s,
        code_oc=_adc_sample(v_oc, adc),
        code_l1=_adc_sample(v1, adc),
        code_l2=_adc_sample(v2, adc),
        att_db=att_db,
    )


def _detector_voltages(oc_sq, tap_sq, det):
    return tuple(_detector_voltage(math.sqrt(x), det) for x in (oc_sq, *tap_sq))


def chain_voltages_lines_scalar(lines, cfg, att_db, forward_ratios=None):
    drive, total_w, sat_w = _drive(lines, cfg, att_db, forward_ratios)
    oc_sq, tap_sq = _tap_rms_squares(drive, cfg.stub)
    if oc_sq == math.inf:
        raise ValueError(f"the stub drive of {total_w!r} W after the gain overflows a float in its standing-wave sum")
    if total_w > sat_w:
        scale = sat_w / total_w
        oc_sq, tap_sq = oc_sq * scale, [x * scale for x in tap_sq]
    return _detector_voltages(oc_sq, tap_sq, cfg.detector)


def chain_readout_lines_scalar(lines, cfg, att_db, t_s=0.0, forward_ratios=None) -> TapCodes:
    return _codes(*chain_voltages_lines_scalar(lines, cfg, att_db, forward_ratios), cfg, att_db, t_s)


def chain_readout_lines_two_pass(lines, cfg, att_db, t_s=0.0, forward_ratios=None) -> TapCodes:
    """The readout as it was before the ceiling scaled the three sums: each line's watts scaled to the ceiling, then summed."""
    drive, total_w, sat_w = _drive(lines, cfg, att_db, forward_ratios)
    if total_w > sat_w:
        scale = sat_w / total_w
        drive = [(f, p * scale) for f, p in drive]
    return _codes(*_detector_voltages(*_tap_rms_squares(drive, cfg.stub), cfg.detector), cfg, att_db, t_s)


class _EstimateMemo(NamedTuple):
    """The estimates made against one table and switch frequency, keyed on (code_oc, code_l1, code_l2, att_db)."""

    cal: CalibrationTable
    switch_freq_hz: float | None
    estimates: dict


@dataclass(frozen=True)
class ControllerStateRef:
    """on_sample_ref's state: ControllerState with pending_mode, the mode a pending transition settles to."""

    mode: str = MODE_IDLE
    att_db: float = 0.0
    tuned_freq_hz: float | None = None
    pending_mode: str | None = None
    pending_at_s: float | None = None
    freeze_samples: int = 0
    last_estimate: Estimate | None = None
    diagnostic: str | None = None
    estimate_memo: _EstimateMemo | None = field(default=None, compare=False, repr=False)


def on_sample_ref(codes, st, ctrl, chain, cal):
    """The controller as it was written before its one decision path, with three code checks and two tune blocks.

    The only change is the overrange threshold: the open-end code is
    compared with ceiling_code_ref(chain), the detector ceiling that the power
    estimate uses, where it was compared with the ADC's full code, which an
    acquired code never reaches.
    """
    now = codes.t_s
    actions = []
    mode = st.mode
    pending_mode, pending_at = st.pending_mode, st.pending_at_s
    if pending_at is not None and now >= pending_at:
        mode, pending_mode, pending_at = pending_mode, None, None

    # Gain control first, so estimation sees current attenuator bookkeeping.
    att_cmd = agc_policy(codes.code_oc, st.att_db, ctrl, chain)
    stepped = att_cmd != st.att_db
    if stepped:
        actions.append(Action(ACT_SET_ATT, now + ctrl.clock_period, att_db=att_cmd))

    diagnostic = None
    if codes.code_oc >= ceiling_code_ref(chain) and st.att_db >= chain.attenuator.max_db:
        diagnostic = "overrange: code pinned at full scale with attenuator exhausted"

    memo = st.estimate_memo
    if memo is None or memo.cal is not cal or memo.switch_freq_hz != ctrl.switch_freq_hz:
        memo = _EstimateMemo(cal, ctrl.switch_freq_hz, {})
    est = None
    no_signal = False
    if st.freeze_samples > 0:
        check_codes(codes, chain)  # an unfrozen sample is checked below
        new_freeze = st.freeze_samples - 1
    else:
        new_freeze = 0
        key = (codes.code_oc, codes.code_l1, codes.code_l2, codes.att_db)
        # Only int codes may hit: a float equal to a memoised code must
        # still reach the check below and be refused.
        if type(codes.code_oc) is type(codes.code_l1) is type(codes.code_l2) is int:
            est = memo.estimates.get(key)
        if est is None:
            # The check estimate would make; a floor reading is no signal and is not estimated.
            check_codes(codes, cal.cfg)
            if codes.code_oc <= floor_code_ref(chain):
                no_signal = True
            else:
                # Errors are not memoised.
                try:
                    est = memo.estimates[key] = estimate(codes, cal, ctrl.switch_freq_hz)
                except SwsenseError as exc:
                    diagnostic = f"{type(exc).__name__}: {exc}"

    tuned = st.tuned_freq_hz
    # A saturated open-end reading carries no usable tap ratio; hold all
    # mode decisions and let the step attenuator bring it back in range.
    usable = est is not None and est.confidence != CONF_SATURATED
    if usable or no_signal:
        above = usable and est.power_dbm > ctrl.threshold_dbm
        if mode == MODE_IDLE and above:
            actions.append(Action(ACT_TUNE, now + ctrl.clock_period, freq_hz=est.freq_hz))
            mode, pending_mode, pending_at = MODE_ENGAGING, MODE_ENGAGED, now + ctrl.clock_period
            tuned = est.freq_hz
        elif mode == MODE_ENGAGED:
            if no_signal or not above:
                actions.append(Action(ACT_RELEASE, now + ctrl.clock_period))
                mode, pending_mode, pending_at = MODE_RELEASING, MODE_IDLE, now + ctrl.clock_period
                tuned = None
            elif (
                tuned is not None
                and abs(est.freq_hz - tuned) > ctrl.retune_deadband_hz
            ):
                actions.append(Action(ACT_TUNE, now + ctrl.clock_period, freq_hz=est.freq_hz))
                mode, pending_mode, pending_at = MODE_ENGAGING, MODE_ENGAGED, now + ctrl.clock_period
                tuned = est.freq_hz

    if stepped:
        new_freeze = 1  # next sample straddles the attenuator settling window

    new_state = ControllerStateRef(
        mode=mode,
        att_db=att_cmd,
        tuned_freq_hz=tuned,
        pending_mode=pending_mode,
        pending_at_s=pending_at,
        freeze_samples=new_freeze,
        last_estimate=est if est is not None else (None if no_signal else st.last_estimate),
        diagnostic=diagnostic,
        estimate_memo=memo,
    )
    return new_state, actions
