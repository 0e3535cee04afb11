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
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields

import numpy as np

from .codec import load, rewrite, save
from .core import check_not_bool, interp, watts_to_dbm
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
    chain_codes_cw,
    chain_config_hash,
    chain_readout,  # unused here; perfbench/tracer.py rebinds this name
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

    Every field is a finite number, not a bool, 0 < f_start_hz <=
    f_stop_hz, p_start_dbm <= p_stop_dbm, and both steps are positive;
    anything else is a ValueError.
    Each axis runs from its start by whole steps while below its stop, and
    ends on the stop itself, so it never passes it: the last step is
    shorter when the span is not a whole number of steps, and a span within
    1e-9 of a step of one counts as whole.
    """

    f_start_hz: float = 1e9
    f_stop_hz: float = 16e9
    f_step_hz: float = 0.1e9
    p_start_dbm: float = -20.0
    p_stop_dbm: float = 20.0
    p_step_dbm: float = 1.0

    def __post_init__(self):
        check_not_bool(self, "f_start_hz", "f_stop_hz", "f_step_hz", "p_start_dbm", "p_stop_dbm", "p_step_dbm")
        check_sweep("frequency", self.f_start_hz, self.f_stop_hz, self.f_step_hz)
        check_sweep("power", self.p_start_dbm, self.p_stop_dbm, self.p_step_dbm)
        if not self.f_start_hz > 0.0:
            raise ValueError(f"frequency sweep must start above 0 Hz; got {self.f_start_hz!r}")

    def freqs(self) -> np.ndarray:
        return _axis(self.f_start_hz, self.f_stop_hz, self.f_step_hz)

    def powers(self) -> np.ndarray:
        return _axis(self.p_start_dbm, self.p_stop_dbm, self.p_step_dbm)


def _axis(start: float, stop: float, step: float) -> np.ndarray:
    """start + k * step for the whole steps k below stop, then stop (see CalibrationGrid)."""
    n = math.ceil((stop - start) / step - 1e-9)
    return np.append(start + step * np.arange(n), stop)


@dataclass
class CalibrationTable:
    """Forward-simulated codes over a CW grid, at AGC-dictated attenuation.

    cfg, a hashable value, is the chain it was built for; the later fields
    are derived when the table is made. Its arrays are read-only; change a
    table with dataclasses.replace, which makes a new one with empty fronts.
    Only the open-end codes the grid holds are converted to stub dBm when
    the table is made, and codes 0 and full_code, so a chain whose codes do
    not all convert is refused then; any other code is converted when a
    reading first shows it, and kept (code_dbm).
    """

    freqs_hz: np.ndarray
    powers_dbm: np.ndarray
    att_db: np.ndarray  # shape (nf, np)
    code_oc: np.ndarray
    code_l1: np.ndarray
    code_l2: np.ndarray
    cfg: ChainConfig = field(repr=False)
    # Stub power (dBm) of each open-end code converted so far (_code_dbm):
    # the grid's codes, then those readings show.
    code_dbm: dict = field(init=False, repr=False, compare=False)
    # Attenuation-compensated stub level of every cell, _code_dbm(code_oc) + att_db.
    stub_level: np.ndarray = field(init=False, repr=False)
    # Per tap, the number of leading grid rows (f <= the tap's f_max) it resolves.
    tap_rows: tuple[int, int] = field(init=False, repr=False)
    grid_step_hz: float = field(init=False, repr=False)
    # freqs_hz as a list, for bisect.
    freqs_list: list[float] = field(init=False, repr=False, compare=False)
    # Read-only memoryviews of each row of stub_level and of powers_dbm,
    # sharing their memory, which interp reads per reading without making
    # numpy scalars.
    stub_rows: tuple[memoryview, ...] = field(init=False, repr=False, compare=False)
    powers_view: memoryview = field(init=False, repr=False, compare=False)
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
            if codes.dtype.kind not in "iu":
                raise ValueError(f"calibration codes must be an integer array, got dtype {codes.dtype}")
        for code in (0, full):  # every code between converts if these two do
            _code_dbm(code, cfg)
        codes = np.flatnonzero(np.bincount(self.code_oc.ravel())).tolist()
        self.code_dbm = {c: _code_dbm(c, cfg) for c in codes}
        stub_dbm = np.zeros(full + 1)
        stub_dbm[codes] = list(self.code_dbm.values())
        self.stub_level = stub_dbm[self.code_oc] + self.att_db
        self.tap_rows = tuple(
            int(np.searchsorted(f, t.f_max_hz * (1.0 + 1e-12), side="right")) for t in cfg.stub.taps
        )
        self.grid_step_hz = float(f[1] - f[0]) if len(f) > 1 else 0.0
        self.freqs_list = f.tolist()
        self.stub_rows = tuple(map(_view, self.stub_level))
        self.powers_view = _view(self.powers_dbm)
        self.fronts = tuple({} for _ in self.tap_rows)
        self.shared_fronts = {}
        # The fronts are derived from these arrays, so no one may change them.
        for a in (f, self.powers_dbm, self.att_db, self.code_oc, self.code_l1, self.code_l2, self.stub_level):
            a.flags.writeable = False

    def __reduce__(self):
        # Memoryviews do not pickle: a table pickles as the fields it is made
        # from, and the copy derives the rest, with empty fronts.
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _view(a: np.ndarray) -> memoryview:
    """A read-only memoryview of a 1-D array's values as float64, sharing its memory when it is float64."""
    return memoryview(np.asarray(a, dtype=float)).toreadonly()


def default_grid_for(cfg: ChainConfig) -> CalibrationGrid:
    """Calibration sweep over the chain's band, cfg.band_hz, from 1 GHz at the lowest."""
    f_lo, f_hi = cfg.band_hz
    return CalibrationGrid(f_start_hz=max(1e9, f_lo), f_stop_hz=f_hi)


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


# Cells per settle_cw or chain_codes_cw call of the build; the call's float
# temporaries stay at a few MiB whatever the grid size.
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
    ControllerConfig (None is ControllerConfig.for_chain(cfg)) whose
    window lies between the chain's floor_code and ceiling_code
    (ControllerConfig.check_chain).

    A cell's open-end code, and with it the gain control's walk, depends
    on its row's frequency only through the chain's coupling and ripple
    there (chain_codes_cw adds them to the gain), so the rows are grouped
    by that pair, compared exactly. The first row of each group is settled
    by settle_cw from zero attenuation: where the controller's own
    agc_policy, stepped one setting per round, would stop, found by a
    search of each moving cell's run of settings rather than by stepping
    (see settle_cw). Every other row takes its group's settings and is read
    once through chain_codes_cw. Both run over blocks of whole rows, at most
    _BLOCK_CELLS cells each, so a chain whose rows all differ, such as a
    sloped coupler or a ripple, settles every row. Raises
    CalibrationRangeError for the first cell, in row order, that the
    detectors cannot represent (floor at the bottom, unservable overload at
    the top) or whose frequency is outside the chain's band. That one is
    raised from cfg.check_band's OutOfBandError and carries its message: a
    row above the stub band is named as such, before a coupler's band is
    checked.
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
    ctrl.check_chain(cfg)
    freqs = grid.freqs()
    powers = grid.powers()
    nf, npow = len(freqs), len(powers)
    att = np.zeros((nf, npow))
    oc = np.zeros((nf, npow), dtype=int)
    l1 = np.zeros((nf, npow), dtype=int)
    l2 = np.zeros((nf, npow), dtype=int)
    floor = cfg.floor_code
    max_db = cfg.attenuator.max_db

    # Each in-band row's group is named by its first row. The chain's band
    # check refuses an out-of-band row; the rows before the first one are
    # settled and checked before it is reported.
    first_of: dict[tuple[float, float], int] = {}
    group, out_of_band = [], None
    for i, f in enumerate(freqs.tolist()):
        try:
            cfg.check_band(f)
        except OutOfBandError as exc:
            out_of_band = exc
            break
        group.append(first_of.setdefault((cfg.coupling_db_at(f), cfg.ripple_db_at(f)), i))
    n_rows = len(group)
    group = np.array(group, dtype=int)

    block = max(1, _BLOCK_CELLS // npow)  # rows per settle_cw or chain_codes_cw call
    for r0 in range(0, n_rows, block):
        rows = np.arange(r0, min(r0 + block, n_rows))
        first, rest = rows[group[rows] == rows], rows[group[rows] != rows]
        if first.size:
            oc[first], l1[first], l2[first], att[first] = settle_cw(freqs[first, None], powers, cfg, ctrl)
        if rest.size:
            att[rest] = att[group[rest]]
            oc[rest], l1[rest], l2[rest] = chain_codes_cw(freqs[rest, None], powers, att[rest], cfg)
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


def _code_dbm(code: int, cfg: ChainConfig) -> float:
    """Equivalent stub power (dBm) implied by an open-end ADC code.

    The detector law inverted to volts, then watts_to_dbm's arithmetic,
    refusing 0 W as it does; a code whose volts overflow a float raises
    OverflowError. Both can only happen at the ends of the code range, at
    0 and at full_code, which the table converts when it is made.
    """
    z8 = 8.0 * cfg.stub.z0s
    v = 10.0 ** ((code * cfg.adc.lsb - cfg.detector.intercept_b) / cfg.detector.slope_a)
    w = v * v / z8
    if not w > 0.0:
        watts_to_dbm(w)  # refuses it
    return 10.0 * math.log10(w / 1e-3)


def _front(cal: CalibrationTable, tap_idx: int, code_oc_obs: int) -> tuple:
    """The tap's strictly decreasing (delta, frequency) front for one open-end code.

    For each grid frequency the tap resolves, the power column whose
    open-end code best matches code_oc_obs is selected, and the rows where
    the tap is above its floor give delta = code_tap - code_oc. A row stays
    when its delta is below every delta before it. Returns (lowest delta,
    highest delta, -deltas ascending, frequencies), the last two as
    read-only memoryviews for interp, or () when fewer than two rows stay.
    Built once per (tap, code) and kept on the table.
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
        ok = tap_j > cal.cfg.floor_code
        freqs, deltas = cal.freqs_hz[:n][ok], (tap_j - code_oc[rows, j_star])[ok]
        keep = np.ones(len(deltas), dtype=bool)
        keep[1:] = deltas[1:] < np.minimum.accumulate(deltas)[:-1]
        keep_f, keep_d = freqs[keep], deltas[keep]
        if len(keep_d) >= 2:
            d_arr = -keep_d.astype(float)  # ascending for interp
            front = cal.shared_fronts.setdefault(
                (d_arr.tobytes(), keep_f.tobytes()), (int(keep_d[-1]), int(keep_d[0]), _view(d_arr), _view(keep_f))
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
    refined = interp(-float(delta_obs), front[2], front[3])
    if cal.grid_step_hz and abs(refined - f_closed_hz) > 2.0 * cal.grid_step_hz:
        return f_closed_hz
    return refined


def check_codes(codes: TapCodes, cfg: ChainConfig) -> None:
    """ValueError unless all three codes are ADC codes, each an int or numpy integer (not a bool) in [0, full_code], and att_db a setting."""
    full = cfg.adc.full_code
    _, oc, l1, l2, att = codes
    for name, c in (("code_oc", oc), ("code_l1", l1), ("code_l2", l2)):
        if not ((type(c) is int or isinstance(c, np.integer)) and 0 <= c <= full):
            raise ValueError(f"{name}={c!r} is not an ADC code in [0, {full}]")
    cfg.attenuator.check_setting(att)


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
    floor, ceiling = cfg.floor_code, cfg.ceiling_code
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
    freq_hz that is not positive and finite, then the chain's
    check_band's OutOfBandError for a freq_hz outside its band: above the
    stub band first, then outside a coupler chain's coupler band, as
    build_calibration refuses such a row.
    """
    check_codes(codes, cal.cfg)
    if not 0.0 < freq_hz < math.inf:
        raise ValueError(f"freq_hz={freq_hz!r} is not positive and finite")
    cal.cfg.check_band(freq_hz)
    return _power(codes, freq_hz, cal)


def _power(codes: TapCodes, freq_hz: float, cal: CalibrationTable) -> float:
    """estimate_power for codes already checked."""
    cfg = cal.cfg
    if codes.code_oc <= cfg.floor_code:
        raise NoSignalError("open-end reading at detector floor")
    if codes.code_oc >= cfg.ceiling_code and codes.att_db >= cfg.attenuator.max_db:
        raise PowerOverrangeError("open-end saturated with attenuator at maximum")

    i0 = _nearest_row(cal.freqs_list, freq_hz)
    s_row = cal.stub_rows[i0]
    try:
        s_obs = cal.code_dbm[codes.code_oc]
    except KeyError:  # a code the table has not met: converted once, and kept
        s_obs = cal.code_dbm[codes.code_oc] = _code_dbm(codes.code_oc, cfg)
    s_obs += codes.att_db
    if s_row[0] < s_obs < s_row[-1]:
        return interp(s_obs, s_row, cal.powers_view)
    # interp clamps at the ends; extend the row linearly instead, along
    # the edge column and the nearest column whose level differs from it.
    s_row, p_row = cal.stub_level[i0], cal.powers_dbm
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


_CSV_COLUMNS = ["freq_hz", "power_dbm", "att_db", "code_oc", "code_l1", "code_l2"]


@dataclass(frozen=True)
class _Header:
    """The JSON header of a saved calibration: its grid and the chain it was built for."""

    freqs_hz: tuple[float, ...]
    powers_dbm: tuple[float, ...]
    config_hash: str
    chain: ChainConfig


def save_calibration(cal: CalibrationTable, csv_path: str, header_path: str) -> None:
    """Write the table as CSV rows, one per grid cell in row order, and a JSON header block."""
    freqs, powers = tuple(map(float, cal.freqs_hz)), tuple(map(float, cal.powers_dbm))
    codes = zip(*(map(int, c.flat) for c in (cal.code_oc, cal.code_l1, cal.code_l2)))
    with rewrite(csv_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(
            [repr(f), repr(p), repr(a), *c]
            for (f, p), a, c in zip(itertools.product(freqs, powers), map(float, cal.att_db.flat), codes)
        )
    save(_Header(freqs, powers, chain_config_hash(cal.cfg), cal.cfg), header_path)


def load_calibration(csv_path: str, header_path: str) -> CalibrationTable:
    """Read a calibration saved by save_calibration; its CSV must hold the
    header's grid in row order, six cells a row with att_db a setting. A
    malformed header or row is a ValueError naming its key or CSV line."""
    hdr = load(_Header, header_path, "header", root=True)
    if chain_config_hash(hdr.chain) != hdr.config_hash:
        raise ValueError("calibration header hash does not match its chain config")
    grid = list(itertools.product(hdr.freqs_hz, hdr.powers_dbm))
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [_CSV_COLUMNS]:
        raise ValueError(f"calibration CSV line 1 must be {','.join(_CSV_COLUMNS)}")
    if len(rows) - 1 != len(grid):
        raise ValueError(f"calibration CSV has {len(rows) - 1} rows for the {len(grid)} cells of its header's grid")
    att, codes = [], []
    for line, (row, cell) in enumerate(zip(rows[1:], grid), 2):
        try:
            if len(row) != 6:
                raise ValueError(f"expected 6 cells, got {len(row)}")
            if (float(row[0]), float(row[1])) != cell:
                raise ValueError(f"({row[0]} Hz, {row[1]} dBm) is not grid cell ({cell[0]!r} Hz, {cell[1]!r} dBm)")
            att.append(float(row[2]))
            hdr.chain.attenuator.check_setting(att[-1])
            codes.append([int(c) for c in row[3:]])
        except ValueError as exc:
            raise ValueError(f"calibration CSV line {line}: {exc}") from None
    # No dtype: a code past int64 makes an object array, which the table's range check refuses.
    oc, l1, l2 = np.array(codes).T.reshape(3, len(hdr.freqs_hz), len(hdr.powers_dbm))
    return CalibrationTable(
        freqs_hz=np.array(hdr.freqs_hz),
        powers_dbm=np.array(hdr.powers_dbm),
        att_db=np.array(att).reshape(oc.shape),
        code_oc=oc,
        code_l1=l1,
        code_l2=l2,
        cfg=hdr.chain,
    )
