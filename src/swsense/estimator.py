"""Frequency/power estimation from tap codes, and stub design helpers.

Estimation inverts the standing-wave ratio: the difference between a tap's
detector code and the open-end code fixes log10 of the voltage ratio, and
arccos of that ratio fixes frequency. A forward-simulated calibration
table refines the closed-form value by local inverse interpolation and
supplies the power scale including attenuator bookkeeping.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .core import SignalDescriptor, Tone, watts_to_dbm
from .errors import (
    BijectivityError,
    CalibrationRangeError,
    IndeterminateFrequencyError,
    NoSignalError,
    OutOfBandError,
    PlacementInfeasibleError,
    PowerOverrangeError,
)
from .readout import (
    AdcParams,
    ChainConfig,
    DetectorParams,
    TapCodes,
    chain_config_from_dict,
    chain_config_hash,
    chain_config_to_dict,
    chain_readout,
    detector_ceiling_code,
    detector_floor_code,
)

CONF_IN_RANGE = "in-range"
CONF_CLAMPED = "clamped"
CONF_SATURATED = "saturated"


@dataclass(frozen=True)
class Estimate:
    """One frequency/power reading with the tap that produced it."""

    freq_hz: float
    power_dbm: float
    tap_used: str
    confidence: str = CONF_IN_RANGE


@dataclass(frozen=True)
class CalibrationGrid:
    """Rectangular CW calibration sweep."""

    f_start_hz: float = 1e9
    f_stop_hz: float = 16e9
    f_step_hz: float = 0.1e9
    p_start_dbm: float = -20.0
    p_stop_dbm: float = 20.0
    p_step_dbm: float = 1.0

    def freqs(self) -> np.ndarray:
        n = int(round((self.f_stop_hz - self.f_start_hz) / self.f_step_hz)) + 1
        return self.f_start_hz + self.f_step_hz * np.arange(n)

    def powers(self) -> np.ndarray:
        n = int(round((self.p_stop_dbm - self.p_start_dbm) / self.p_step_dbm)) + 1
        return self.p_start_dbm + self.p_step_dbm * np.arange(n)


@dataclass
class CalibrationTable:
    """Forward-simulated codes over a CW grid, at AGC-dictated attenuation."""

    freqs_hz: np.ndarray
    powers_dbm: np.ndarray
    att_db: np.ndarray  # shape (nf, np)
    code_oc: np.ndarray
    code_l1: np.ndarray
    code_l2: np.ndarray
    config_hash: str
    cfg: ChainConfig = field(repr=False)


def resolution(f_hz: float, f_max_hz: float, det: DetectorParams, adc: AdcParams) -> float:
    """Smallest frequency change that moves a tap reading by one ADC code.

    The detector-voltage slope versus frequency is
    a * pi / (2 ln10 f_max) * tan((pi/2) f / f_max); dividing one LSB by it
    gives the local resolution. Diverges toward f -> 0, vanishes at f_max.
    """
    if not 0.0 < f_hz < f_max_hz:
        raise BijectivityError(
            f"resolution defined on (0, f_max); got {f_hz / 1e9:.3f} of {f_max_hz / 1e9:.3f} GHz"
        )
    slope = (
        det.slope_a
        * math.pi
        / (2.0 * math.log(10.0) * f_max_hz)
        * math.tan(math.pi / 2.0 * f_hz / f_max_hz)
    )
    return adc.lsb / slope


def place_nodes(
    f_max_1_hz: float,
    max_fraction: float,
    det: DetectorParams | None = None,
    adc: AdcParams | None = None,
) -> tuple[float, float]:
    """Place a second tap given the first tap's f_max and a relative accuracy bound.

    Returns (f_max_2_hz, f_min_hz): the second tap takes over where the
    first tap's resolution/f crosses max_fraction, and the same crossing of
    the second tap bounds the lowest usable frequency.
    """
    det = det or DetectorParams()
    adc = adc or AdcParams()
    if not 0.0 < max_fraction < 1.0:
        raise PlacementInfeasibleError(f"max_fraction must be in (0, 1), got {max_fraction}")
    if f_max_1_hz <= 0.0:
        raise PlacementInfeasibleError("f_max_1_hz must be positive")

    def crossing(f_max: float) -> float:
        g = lambda f: resolution(f, f_max, det, adc) / f - max_fraction
        lo, hi = f_max * 1e-6, f_max * (1.0 - 1e-9)
        for _ in range(8):
            if g(lo) > 0.0:
                break
            lo *= 1e-3
        else:
            raise PlacementInfeasibleError("resolution bound holds arbitrarily low; nothing to place")
        if g(hi) >= 0.0:
            raise PlacementInfeasibleError(
                f"resolution/f never reaches {max_fraction:.4%} below {f_max / 1e9:.3f} GHz"
            )
        return brentq(g, lo, hi, xtol=1e6)

    f_max_2 = crossing(f_max_1_hz)
    f_min = crossing(f_max_2)
    return f_max_2, f_min


def build_calibration(
    cfg: ChainConfig,
    grid: CalibrationGrid | None = None,
    ctrl=None,
) -> CalibrationTable:
    """Forward-simulate the chain over a CW grid at AGC-dictated attenuation.

    Every cell runs the gain-control policy to its fixed point starting
    from zero attenuation, then records the three codes. Raises
    CalibrationRangeError when a grid cell cannot be represented by the
    detectors (floor at the bottom, unservable overload at the top).
    """
    from .controller import ControllerConfig, agc_policy

    grid = grid or CalibrationGrid()
    ctrl = ctrl or ControllerConfig.for_chain(cfg)
    freqs = grid.freqs()
    powers = grid.powers()
    nf, npow = len(freqs), len(powers)
    att = np.zeros((nf, npow))
    oc = np.zeros((nf, npow), dtype=int)
    l1 = np.zeros((nf, npow), dtype=int)
    l2 = np.zeros((nf, npow), dtype=int)
    floor = detector_floor_code(cfg)
    max_iter = int(round(cfg.attenuator.max_db / cfg.attenuator.step_db)) + 2

    for i, f in enumerate(freqs):
        for j, p in enumerate(powers):
            sig = SignalDescriptor((Tone(freq_hz=float(f), power_dbm=float(p)),))
            a = 0.0
            try:
                codes = chain_readout(sig, cfg, a)
                for _ in range(max_iter):
                    a_next = agc_policy(codes.code_oc, a, ctrl, cfg)
                    if a_next == a:
                        break
                    a = a_next
                    codes = chain_readout(sig, cfg, a)
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
        config_hash=chain_config_hash(cfg),
        cfg=cfg,
    )


def _code_to_stub_dbm(code: int, cfg: ChainConfig) -> float:
    """Equivalent stub power implied by an open-end code."""
    v_det = code * cfg.adc.lsb
    v = 10.0 ** ((v_det - cfg.detector.intercept_b) / cfg.detector.slope_a)
    return watts_to_dbm(v * v / (8.0 * cfg.stub.z0s))


def _refine_against_table(
    f_closed_hz: float,
    delta_obs: int,
    code_oc_obs: int,
    tap_idx: int,
    f_limit_hz: float,
    cal: CalibrationTable,
) -> float:
    """Local inverse interpolation of (code_tap - code_oc) versus frequency.

    For each usable grid frequency the power column whose open-end code
    best matches the observation is selected, making a grid query
    reproduce its grid frequency exactly. Falls back to the closed form
    when the table is degenerate or disagrees by more than two cells.
    """
    code_tap = (cal.code_l1, cal.code_l2)[tap_idx]
    floor = detector_floor_code(cal.cfg)
    usable = cal.freqs_hz <= f_limit_hz * (1.0 + 1e-12)
    if usable.sum() < 2:
        return f_closed_hz
    freqs = cal.freqs_hz[usable]
    j_star = np.abs(cal.code_oc[usable] - code_oc_obs).argmin(axis=1)
    rows = np.arange(usable.sum())
    deltas = code_tap[usable][rows, j_star] - cal.code_oc[usable][rows, j_star]
    taps_ok = code_tap[usable][rows, j_star] > floor
    # Keep a strictly decreasing delta-versus-frequency front.
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
    d_arr = -np.asarray(keep_d, dtype=float)  # ascending for interp
    f_arr = np.asarray(keep_f)
    refined = float(np.interp(-float(delta_obs), d_arr, f_arr))
    grid_step = float(cal.freqs_hz[1] - cal.freqs_hz[0]) if len(cal.freqs_hz) > 1 else 0.0
    if grid_step and abs(refined - f_closed_hz) > 2.0 * grid_step:
        return f_closed_hz
    return refined


def estimate_frequency(
    codes: TapCodes, cal: CalibrationTable, switch_freq_hz: float | None = None
) -> tuple[float, str, str]:
    """(freq_hz, tap_used, confidence) from one acquisition.

    The high-band tap is inverted first; below the switch frequency the
    estimate is always recomputed from the fine tap, flagged clamped when
    that tap sits at its detector floor (the floored code still bounds the
    ratio near the tap's null). A fine-tap answer at or above the switch
    point pins the result to the switch frequency against the coarse tap.
    """
    cfg = cal.cfg
    det, adc = cfg.detector, cfg.adc
    floor = detector_floor_code(cfg)
    ceiling = detector_ceiling_code(cfg)
    if codes.code_oc <= floor:
        raise NoSignalError("open-end reading at detector floor")
    if codes.code_l1 >= ceiling and codes.code_l2 >= ceiling:
        raise IndeterminateFrequencyError("both tap detectors saturated")

    taps = cfg.stub.taps
    switch = switch_freq_hz if switch_freq_hz is not None else taps[1].f_max_hz
    conf = CONF_SATURATED if codes.code_oc >= ceiling else CONF_IN_RANGE
    v_det_oc = codes.code_oc * adc.lsb

    def invert(code_tap: int, tap_idx: int) -> tuple[float, bool]:
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


def estimate_power(codes: TapCodes, freq_hz: float, cal: CalibrationTable) -> float:
    """Input power in dBm from the open-end code, compensating attenuation.

    The open-end code and the active attenuator setting combine into one
    attenuation-compensated level that is interpolated (linearly, in dB)
    along the calibration row nearest to freq_hz.
    """
    cfg = cal.cfg
    floor = detector_floor_code(cfg)
    ceiling = detector_ceiling_code(cfg)
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
    # np.interp clamps at the ends; extend the edge segments linearly instead.
    if s_obs <= s_row[0]:
        k = (p_row[1] - p_row[0]) / (s_row[1] - s_row[0])
        return float(p_row[0] + k * (s_obs - s_row[0]))
    if s_obs >= s_row[-1]:
        k = (p_row[-1] - p_row[-2]) / (s_row[-1] - s_row[-2])
        return float(p_row[-1] + k * (s_obs - s_row[-1]))
    return float(np.interp(s_obs, s_row, p_row))


def estimate(codes: TapCodes, cal: CalibrationTable, switch_freq_hz: float | None = None) -> Estimate:
    """Joint frequency and power estimate for one acquisition."""
    f, tap_used, conf = estimate_frequency(codes, cal, switch_freq_hz)
    p = estimate_power(codes, f, cal)
    return Estimate(freq_hz=f, power_dbm=p, tap_used=tap_used, confidence=conf)


# ---------------- persistence ----------------


def save_calibration(cal: CalibrationTable, csv_path: str, header_path: str) -> None:
    """Write the table as CSV rows plus a JSON header with grids and metadata."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "power_dbm", "att_db", "code_oc", "code_l1", "code_l2"])
        for i, f in enumerate(cal.freqs_hz):
            for j, p in enumerate(cal.powers_dbm):
                writer.writerow(
                    [
                        repr(float(f)),
                        repr(float(p)),
                        repr(float(cal.att_db[i, j])),
                        int(cal.code_oc[i, j]),
                        int(cal.code_l1[i, j]),
                        int(cal.code_l2[i, j]),
                    ]
                )
    header = {
        "freqs_hz": [float(x) for x in cal.freqs_hz],
        "powers_dbm": [float(x) for x in cal.powers_dbm],
        "config_hash": cal.config_hash,
        "chain": chain_config_to_dict(cal.cfg),
    }
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_calibration(csv_path: str, header_path: str) -> CalibrationTable:
    """Read a calibration saved by save_calibration, verifying completeness."""
    with open(header_path) as fh:
        header = json.load(fh)
    cfg = chain_config_from_dict(header["chain"])
    if chain_config_hash(cfg) != header["config_hash"]:
        raise ValueError("calibration header hash does not match its chain config")
    freqs = np.array(header["freqs_hz"])
    powers = np.array(header["powers_dbm"])
    nf, npow = len(freqs), len(powers)
    att = np.full((nf, npow), np.nan)
    oc = np.full((nf, npow), -1, dtype=int)
    l1 = np.full((nf, npow), -1, dtype=int)
    l2 = np.full((nf, npow), -1, dtype=int)
    fi = {float(f): i for i, f in enumerate(freqs)}
    pj = {float(p): j for j, p in enumerate(powers)}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            i = fi[float(row["freq_hz"])]
            j = pj[float(row["power_dbm"])]
            att[i, j] = float(row["att_db"])
            oc[i, j] = int(row["code_oc"])
            l1[i, j] = int(row["code_l1"])
            l2[i, j] = int(row["code_l2"])
    if np.isnan(att).any() or (oc < 0).any():
        raise ValueError("calibration CSV does not cover the full grid in its header")
    return CalibrationTable(
        freqs_hz=freqs,
        powers_dbm=powers,
        att_db=att,
        code_oc=oc,
        code_l1=l1,
        code_l2=l2,
        config_hash=header["config_hash"],
        cfg=cfg,
    )
