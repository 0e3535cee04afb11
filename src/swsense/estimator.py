"""Frequency/power estimation from tap codes, and stub design helpers.

Estimation inverts the standing-wave ratio: the difference between a tap's
detector code and the open-end code fixes log10 of the voltage ratio, and
arccos of that ratio fixes frequency. A forward-simulated calibration
table refines the closed-form value by local inverse interpolation and
supplies the power scale including attenuator bookkeeping. Each table
precomputes, once, the parts of that inverse that do not depend on the
observation, and keeps each inversion front it builds for an open-end
code.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .core import watts_to_dbm
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
    chain_readout,  # unused here; perfbench/tracer.py rebinds this name
    check_stub_band,
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


def check_sweep(what: str, start: float, stop: float, step: float) -> None:
    """ValueError unless start <= stop and step > 0, all three finite."""
    if not (math.isfinite(start) and math.isfinite(stop) and 0.0 < step < math.inf and start <= stop):
        raise ValueError(f"{what} sweep needs finite start <= stop and step > 0; got {start!r}, {stop!r}, {step!r}")


@dataclass(frozen=True)
class CalibrationGrid:
    """Rectangular CW calibration sweep.

    Every field is finite, 0 < f_start_hz <= f_stop_hz, p_start_dbm <=
    p_stop_dbm, and both steps are positive; anything else is a ValueError.
    """

    f_start_hz: float = 1e9
    f_stop_hz: float = 16e9
    f_step_hz: float = 0.1e9
    p_start_dbm: float = -20.0
    p_stop_dbm: float = 20.0
    p_step_dbm: float = 1.0

    def __post_init__(self):
        check_sweep("frequency", self.f_start_hz, self.f_stop_hz, self.f_step_hz)
        check_sweep("power", self.p_start_dbm, self.p_stop_dbm, self.p_step_dbm)
        if not self.f_start_hz > 0.0:
            raise ValueError(f"frequency sweep must start above 0 Hz; got {self.f_start_hz!r}")

    def freqs(self) -> np.ndarray:
        n = int(round((self.f_stop_hz - self.f_start_hz) / self.f_step_hz)) + 1
        return self.f_start_hz + self.f_step_hz * np.arange(n)

    def powers(self) -> np.ndarray:
        n = int(round((self.p_stop_dbm - self.p_start_dbm) / self.p_step_dbm)) + 1
        return self.p_start_dbm + self.p_step_dbm * np.arange(n)


@dataclass
class CalibrationTable:
    """Forward-simulated codes over a CW grid, at AGC-dictated attenuation.

    cfg, a hashable value, is the chain it was built for; the later fields
    are derived when the table is made. Its arrays are read-only; change a
    table with dataclasses.replace, which makes a new one with empty fronts.
    """

    freqs_hz: np.ndarray
    powers_dbm: np.ndarray
    att_db: np.ndarray  # shape (nf, np)
    code_oc: np.ndarray
    code_l1: np.ndarray
    code_l2: np.ndarray
    cfg: ChainConfig = field(repr=False)
    floor_code: int = field(init=False, repr=False)
    ceiling_code: int = field(init=False, repr=False)
    # Stub power (dBm) implied by each open-end code 0..full_code.
    stub_dbm: np.ndarray = field(init=False, repr=False)
    # Attenuation-compensated stub level of every cell, stub_dbm[code_oc] + att_db.
    stub_level: np.ndarray = field(init=False, repr=False)
    # Per tap, the number of leading grid rows (f <= the tap's f_max) it resolves.
    tap_rows: tuple[int, int] = field(init=False, repr=False)
    grid_step_hz: float = field(init=False, repr=False)
    # freqs_hz as a list, for bisect.
    freqs_list: list[float] = field(init=False, repr=False, compare=False)
    # Per tap, the refinement's front for each open-end code, built on first
    # use (see _front); equal fronts are one object, kept in shared_fronts.
    fronts: tuple[dict, ...] = field(init=False, repr=False, compare=False)
    shared_fronts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cfg = self.cfg
        f = self.freqs_hz
        full = cfg.adc.full_code
        if not (f.size and self.powers_dbm.size):
            raise ValueError("calibration needs at least one frequency and one power")
        if np.any(np.diff(f) <= 0.0):
            raise ValueError("calibration frequencies must be strictly ascending")
        for codes in (self.code_oc, self.code_l1, self.code_l2):
            if codes.size and not 0 <= codes.min() <= codes.max() <= full:
                raise ValueError(f"calibration codes outside the ADC range [0, {full}]")
        self.floor_code = detector_floor_code(cfg)
        self.ceiling_code = detector_ceiling_code(cfg)
        self.stub_dbm = _stub_dbm(cfg)
        self.stub_level = self.stub_dbm[self.code_oc] + self.att_db
        self.tap_rows = tuple(
            int(np.searchsorted(f, t.f_max_hz * (1.0 + 1e-12), side="right")) for t in cfg.stub.taps
        )
        self.grid_step_hz = float(f[1] - f[0]) if len(f) > 1 else 0.0
        self.freqs_list = f.tolist()
        self.fronts = tuple({} for _ in self.tap_rows)
        self.shared_fronts = {}
        # The fronts are derived from these arrays, so no one may change them.
        for a in (f, self.powers_dbm, self.att_db, self.code_oc, self.code_l1, self.code_l2,
                  self.stub_dbm, self.stub_level):
            a.flags.writeable = False


def default_grid_for(cfg: ChainConfig) -> CalibrationGrid:
    """Calibration sweep covering the chain's usable band."""
    f_hi = cfg.stub.taps[0].f_max_hz
    f_lo = 1e9
    if cfg.coupling_kind == "coupler":
        f_hi = min(f_hi, cfg.coupler.f_max_hz)
        f_lo = max(f_lo, cfg.coupler.f_min_hz)
    return CalibrationGrid(f_start_hz=f_lo, f_stop_hz=f_hi)


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
    if not 0.0 < f_max_1_hz < math.inf:
        raise PlacementInfeasibleError(f"f_max_1_hz must be positive and finite, got {f_max_1_hz}")

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
        while hi - lo > 1.0:  # bisect g's sign change to 1 Hz
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    f_max_2 = crossing(f_max_1_hz)
    f_min = crossing(f_max_2)
    return f_max_2, f_min


# Cells per settle_cw call of the build; the call's float temporaries stay
# at a few MiB whatever the grid size.
_BLOCK_CELLS = 1 << 14


def build_calibration(
    cfg: ChainConfig,
    grid: CalibrationGrid | None = None,
    ctrl=None,
) -> CalibrationTable:
    """Forward-simulate the chain over a CW grid at AGC-dictated attenuation.

    Domain, enforced with ValueError naming the argument: cfg is a
    ChainConfig, grid is None or a CalibrationGrid (None is
    default_grid_for(cfg), the chain's usable band), and ctrl is None or a
    ControllerConfig (None is ControllerConfig.for_chain(cfg)).

    Every cell is settled by settle_cw from zero attenuation, one block of
    whole rows per call: where the controller's own agc_policy, stepped one
    setting per round, would stop, found by bisection of each moving cell's
    run of settings rather than by stepping (see settle_cw). Raises
    CalibrationRangeError for the first cell, in row order, that the
    detectors cannot represent (floor at the bottom, unservable overload at
    the top) or whose frequency is outside the coupler band or above the
    stub band.
    """
    from .controller import ControllerConfig, settle_cw

    if not isinstance(cfg, ChainConfig):
        raise ValueError(f"cfg must be a ChainConfig, got {cfg!r}")
    if not (grid is None or isinstance(grid, CalibrationGrid)):
        raise ValueError(f"grid must be None or a CalibrationGrid, got {grid!r}")
    if not (ctrl is None or isinstance(ctrl, ControllerConfig)):
        raise ValueError(f"ctrl must be None or a ControllerConfig, got {ctrl!r}")
    grid = grid or default_grid_for(cfg)
    ctrl = ctrl or ControllerConfig.for_chain(cfg)
    freqs = grid.freqs()
    powers = grid.powers()
    nf, npow = len(freqs), len(powers)
    att = np.zeros((nf, npow))
    oc = np.zeros((nf, npow), dtype=int)
    l1 = np.zeros((nf, npow), dtype=int)
    l2 = np.zeros((nf, npow), dtype=int)
    floor = detector_floor_code(cfg)
    max_db = cfg.attenuator.max_db

    # The coupler's lookup or the stub band refuses an out-of-band row; the
    # rows before the first one are settled and checked before it is reported.
    n_rows, out_of_band = 0, None
    for f in freqs.tolist():
        try:
            cfg.coupling_db_at(f)
            check_stub_band(f, cfg)
        except OutOfBandError as exc:
            out_of_band = exc
            break
        n_rows += 1

    block = max(1, _BLOCK_CELLS // npow)  # rows per settle_cw call
    for r0 in range(0, n_rows, block):
        rows = slice(r0, min(r0 + block, n_rows))
        oc[rows], l1[rows], l2[rows], att[rows] = settle_cw(freqs[rows, None], powers, cfg, ctrl)
        at_floor = oc[rows] <= floor
        exhausted = (oc[rows] > ctrl.agc_high_code) & (att[rows] >= max_db)
        bad = np.argwhere(at_floor | exhausted)
        if bad.size:
            i, j = bad[0]
            cell = f"{freqs[r0 + i] / 1e9:.2f} GHz, {powers[j]:.1f} dBm"
            if at_floor[i, j]:
                raise CalibrationRangeError(f"open-end reading at detector floor for {cell}")
            raise CalibrationRangeError(f"attenuator exhausted holding {cell}")
    if out_of_band is not None:
        raise CalibrationRangeError(str(out_of_band)) from out_of_band

    return CalibrationTable(
        freqs_hz=freqs,
        powers_dbm=powers,
        att_db=att,
        code_oc=oc,
        code_l1=l1,
        code_l2=l2,
        cfg=cfg,
    )


def _stub_dbm(cfg: ChainConfig) -> np.ndarray:
    """Equivalent stub power (dBm) implied by each open-end code 0..full_code."""
    lsb, b, a = cfg.adc.lsb, cfg.detector.intercept_b, cfg.detector.slope_a
    z8 = 8.0 * cfg.stub.z0s
    out = []
    for code in range(cfg.adc.full_code + 1):
        v = 10.0 ** ((code * lsb - b) / a)
        out.append(watts_to_dbm(v * v / z8))
    return np.array(out)


def _front(cal: CalibrationTable, tap_idx: int, code_oc_obs: int) -> tuple:
    """The tap's strictly decreasing (delta, frequency) front for one open-end code.

    For each grid frequency the tap resolves, the power column whose
    open-end code best matches code_oc_obs is selected, and the rows where
    the tap is above its floor give delta = code_tap - code_oc. A row stays
    when its delta is below every delta before it. Returns (lowest delta,
    highest delta, -deltas ascending, frequencies), or () when fewer than
    two rows stay. Built once per (tap, code) and kept on the table.
    """
    fronts = cal.fronts[tap_idx]
    front = fronts.get(code_oc_obs)
    if front is not None:
        return front
    n = cal.tap_rows[tap_idx]
    front = ()
    if n >= 2:
        code_oc = cal.code_oc[:n]
        code_tap = (cal.code_l1, cal.code_l2)[tap_idx][:n]
        j_star = np.abs(code_oc - code_oc_obs).argmin(axis=1)
        rows = np.arange(n)
        tap_j = code_tap[rows, j_star]
        ok = tap_j > cal.floor_code
        freqs, deltas = cal.freqs_hz[:n][ok], (tap_j - code_oc[rows, j_star])[ok]
        keep = np.ones(len(deltas), dtype=bool)
        keep[1:] = deltas[1:] < np.minimum.accumulate(deltas)[:-1]
        keep_f, keep_d = freqs[keep], deltas[keep]
        if len(keep_d) >= 2:
            d_arr = -keep_d.astype(float)  # ascending for interp
            front = cal.shared_fronts.setdefault(
                (d_arr.tobytes(), keep_f.tobytes()), (int(keep_d[-1]), int(keep_d[0]), d_arr, keep_f)
            )
    fronts[code_oc_obs] = front
    return front


def _refine_against_table(
    f_closed_hz: float,
    delta_obs: int,
    code_oc_obs: int,
    tap_idx: int,
    cal: CalibrationTable,
) -> float:
    """Local inverse interpolation of (code_tap - code_oc) versus frequency.

    Interpolates delta_obs along the front for the observed open-end code,
    so a grid query reproduces its grid frequency exactly. Falls back to
    the closed form when the front is degenerate, does not span delta_obs,
    or disagrees by more than two cells.
    """
    front = _front(cal, tap_idx, code_oc_obs)
    if not front or not front[0] <= delta_obs <= front[1]:
        return f_closed_hz
    refined = float(np.interp(-float(delta_obs), front[2], front[3]))
    if cal.grid_step_hz and abs(refined - f_closed_hz) > 2.0 * cal.grid_step_hz:
        return f_closed_hz
    return refined


def check_codes(codes: TapCodes, cfg: ChainConfig) -> None:
    """ValueError unless all three codes are ADC codes and att_db a setting."""
    full = cfg.adc.full_code
    for name, c in (("code_oc", codes.code_oc), ("code_l1", codes.code_l1), ("code_l2", codes.code_l2)):
        if not (isinstance(c, (int, np.integer)) and 0 <= c <= full):
            raise ValueError(f"{name}={c!r} is not an ADC code in [0, {full}]")
    cfg.attenuator.check_setting(codes.att_db)


def estimate_frequency(
    codes: TapCodes, cal: CalibrationTable, switch_freq_hz: float | None = None
) -> tuple[float, str, str]:
    """(freq_hz, tap_used, confidence) from one acquisition.

    The high-band tap is inverted first; below the switch frequency the
    estimate is always recomputed from the fine tap, flagged clamped when
    that tap sits at its detector floor (the floored code still bounds the
    ratio near the tap's null). A fine-tap answer at or above the switch
    point pins the result to the switch frequency against the coarse tap.
    Raises ValueError for a code outside the ADC range or an att_db that
    is not an attenuator setting.
    """
    check_codes(codes, cal.cfg)
    return _frequency(codes, cal, switch_freq_hz)


def _frequency(codes: TapCodes, cal: CalibrationTable, switch_freq_hz: float | None) -> tuple[float, str, str]:
    """estimate_frequency for codes already checked."""
    cfg = cal.cfg
    det, adc = cfg.detector, cfg.adc
    floor, ceiling = cal.floor_code, cal.ceiling_code
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
        f = _refine_against_table(f_cf, code_tap - codes.code_oc, codes.code_oc, tap_idx, cal)
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
    along the calibration row nearest to freq_hz. Raises ValueError for a
    code outside the ADC range, an att_db that is not a setting, or a
    freq_hz that is not positive and finite, and OutOfBandError for a
    freq_hz above the stub band.
    """
    check_codes(codes, cal.cfg)
    if not 0.0 < freq_hz < math.inf:
        raise ValueError(f"freq_hz={freq_hz!r} is not positive and finite")
    check_stub_band(freq_hz, cal.cfg)
    return _power(codes, freq_hz, cal)


def _power(codes: TapCodes, freq_hz: float, cal: CalibrationTable) -> float:
    """estimate_power for codes already checked."""
    if codes.code_oc <= cal.floor_code:
        raise NoSignalError("open-end reading at detector floor")
    if codes.code_oc >= cal.ceiling_code and codes.att_db >= cal.cfg.attenuator.max_db:
        raise PowerOverrangeError("open-end saturated with attenuator at maximum")

    i0 = _nearest_row(cal.freqs_list, freq_hz)
    s_row = cal.stub_level[i0]
    s_obs = cal.stub_dbm[codes.code_oc] + codes.att_db
    p_row = cal.powers_dbm
    if s_row[0] < s_obs < s_row[-1]:
        return float(np.interp(s_obs, s_row, p_row))
    # np.interp clamps at the ends; extend the row linearly instead, along
    # the edge column and the nearest column whose level differs from it.
    edge = 0 if s_obs <= s_row[0] else len(s_row) - 1
    differ = np.flatnonzero(s_row != s_row[edge])
    if not differ.size:
        raise CalibrationRangeError(
            f"calibration row at {cal.freqs_list[i0] / 1e9:.2f} GHz has a single stub level, so no power slope"
        )
    lo, hi = (edge, differ[0]) if edge == 0 else (differ[-1], edge)
    k = (p_row[hi] - p_row[lo]) / (s_row[hi] - s_row[lo])
    return float(p_row[edge] + k * (s_obs - s_row[edge]))


def _nearest_row(freqs: list[float], f_hz: float) -> int:
    """Index of the ascending freqs nearest f_hz, the first on a tie, as
    np.abs(freqs - f_hz).argmin() picks it."""
    i = bisect_left(freqs, f_hz)
    if i == len(freqs) or (i and f_hz - freqs[i - 1] <= freqs[i] - f_hz):
        i -= 1
        # Far above the grid, rounding can make rows below equally near.
        d = f_hz - freqs[i]
        while i and f_hz - freqs[i - 1] == d:
            i -= 1
    return i


def estimate(codes: TapCodes, cal: CalibrationTable, switch_freq_hz: float | None = None) -> Estimate:
    """Joint frequency and power estimate for one acquisition.

    The codes are checked once, with estimate_frequency's errors.
    """
    check_codes(codes, cal.cfg)
    f, tap_used, conf = _frequency(codes, cal, switch_freq_hz)
    p = _power(codes, f, cal)
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
        "config_hash": chain_config_hash(cal.cfg),
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
        cfg=cfg,
    )
