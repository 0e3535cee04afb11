"""Sample-driven detection controller: gain control, thresholding, filter actions.

Every ADC acquisition runs one handler pass: the gain-control policy first
(so attenuator bookkeeping is always current), then estimation and the
threshold state machine. Actions carry an effective time one controller
clock after the triggering sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import check_not_bool, dbm_to_watts
from .estimator import CONF_SATURATED, CalibrationTable, Estimate, check_codes, estimate
from .errors import SwsenseError
from .readout import ChainConfig, TapCodes, chain_codes_cw, chain_readout_lines

MODE_IDLE = "idle"
MODE_ENGAGING = "engaging"
MODE_ENGAGED = "engaged"
MODE_RELEASING = "releasing"

ACT_TUNE = "tune"
ACT_RELEASE = "release"
ACT_SET_ATT = "set_att"


class Action(NamedTuple):
    """One controller output, applied at effective_at_s."""

    kind: str
    effective_at_s: float
    freq_hz: float | None = None
    att_db: float | None = None


# ControllerConfig.for_chain's AGC window: the input power (dBm) of its top, and its width in codes.
_AGC_PROBE_DBM = 0.0
_AGC_WINDOW_CODES = 150


@dataclass(frozen=True)
class ControllerConfig:
    """Detection threshold, gain-control window, and timing of one stage.

    The code window defaults match the default chain: agc_high_code is the
    open-end code seen at 0 dBm input with zero attenuation, so the
    attenuator starts stepping right above that input level. Readings
    at the chain's floor_code mean "no signal" and freeze the attenuator
    rather than walking it down.

    Domain, enforced with ValueError: no field is a bool, threshold_dbm
    is not NaN, clock_period is positive and finite (an action takes effect
    after the sample that decided it), retune_deadband_hz >= 0,
    switch_freq_hz is None or positive and finite, and agc_low_code <=
    agc_high_code. Where the controller meets its chain (build_calibration,
    StageSpec), check_chain also requires agc_low_code above the chain's
    floor_code and agc_high_code below its ceiling_code: a reading never
    exceeds the ceiling, so a window at or above it would never step a
    saturated reading down.
    """

    threshold_dbm: float = 0.0
    agc_high_code: int = 2965
    agc_low_code: int = 2815
    clock_period: float = 200e-9
    retune_deadband_hz: float = 400e6
    switch_freq_hz: float | None = None

    def __post_init__(self):
        check_not_bool(
            self, "threshold_dbm", "agc_high_code", "agc_low_code", "clock_period", "retune_deadband_hz", "switch_freq_hz"
        )
        if math.isnan(self.threshold_dbm):
            raise ValueError("threshold_dbm must be a number")
        if not 0.0 < self.clock_period < math.inf:
            raise ValueError(f"clock_period must be positive and finite, got {self.clock_period!r}")
        if not self.retune_deadband_hz >= 0.0:
            raise ValueError(f"retune_deadband_hz must be >= 0, got {self.retune_deadband_hz!r}")
        if self.switch_freq_hz is not None and not 0.0 < self.switch_freq_hz < math.inf:
            raise ValueError(f"switch_freq_hz must be null or positive and finite, got {self.switch_freq_hz!r}")
        if not self.agc_low_code <= self.agc_high_code:
            raise ValueError(f"need agc_low_code <= agc_high_code, got {self.agc_low_code}, {self.agc_high_code}")

    def check_chain(self, cfg: ChainConfig) -> None:
        """ValueError unless the window lies between cfg's floor_code and ceiling_code.

        floor_code is the code that means no signal. The bottom is checked
        first.
        """
        if not self.agc_low_code > cfg.floor_code:
            raise ValueError(f"agc_low_code={self.agc_low_code} must lie above the chain's floor_code={cfg.floor_code}")
        if not self.agc_high_code < cfg.ceiling_code:
            raise ValueError(
                f"agc_high_code={self.agc_high_code} must lie below the chain's ceiling_code={cfg.ceiling_code}"
            )

    @staticmethod
    def for_chain(cfg: ChainConfig) -> "ControllerConfig":
        """The code window of a chain: _AGC_WINDOW_CODES wide, its top the open-end code at _AGC_PROBE_DBM.

        The probe is one CW line at half the first tap's f_max, read with
        no attenuation. On a chain with enough gain that code is the
        ceiling_code, and check_chain refuses the window: such a chain
        needs a window given explicitly.
        """
        f_probe = cfg.stub.taps[0].f_max_hz / 2.0
        high = chain_readout_lines([(f_probe, dbm_to_watts(_AGC_PROBE_DBM))], cfg, 0.0).code_oc
        return ControllerConfig(agc_high_code=high, agc_low_code=high - _AGC_WINDOW_CODES)


class ControllerState(NamedTuple):
    """Controller bookkeeping between samples.

    A mode of engaging or releasing settles to engaged or idle at the
    first sample at or after pending_at_s. Two states are equal when all
    their fields are, which is how the engine finds a fixed point of
    on_sample. Like TapCodes and Action, a NamedTuple, built once per
    sample: immutable, and a changed copy is st._replace(mode=...).
    """

    mode: str = MODE_IDLE
    att_db: float = 0.0
    tuned_freq_hz: float | None = None
    pending_at_s: float | None = None
    freeze_samples: int = 0
    last_estimate: Estimate | None = None
    diagnostic: str | None = None


def agc_policy(
    code_oc: int | np.ndarray, att_db: float | np.ndarray, ctrl: ControllerConfig, chain: ChainConfig
) -> float | np.ndarray:
    """Next attenuator setting for an open-end code (one step per sample).

    Readings above the window step the attenuation up; readings below it
    step down only while a signal is actually visible (above the detector
    floor) and attenuation remains to remove. A stepped setting is the
    nearest whole number of steps, clamped to [0, max_db]; an unstepped one
    is att_db itself.

    This is the only gain-control rule: on_sample applies it to one
    reading, and settle_cw to numpy arrays of code_oc and att_db,
    element by element, with the same result per element. Scalars give a
    Python float when att_db is one; arrays give an array.
    """
    step = chain.attenuator.step_db
    max_db = chain.attenuator.max_db
    if not (getattr(code_oc, "ndim", 0) or getattr(att_db, "ndim", 0)):
        # One reading, once per sample: Python's round and comparisons give
        # the same setting as numpy's rint and clip below, at a fraction of
        # their cost (up and down exclude each other).
        if code_oc > ctrl.agc_high_code:
            if not att_db < max_db - 1e-9:
                return att_db
            moved = round((att_db + step) / step) * step
        elif chain.floor_code < code_oc < ctrl.agc_low_code and att_db > 1e-9:
            moved = round((att_db - step) / step) * step
        else:
            return att_db
        return moved if 0.0 <= moved <= max_db else (0.0 if moved < 0.0 else max_db)
    up = (code_oc > ctrl.agc_high_code) & (att_db < max_db - 1e-9)
    down = (chain.floor_code < code_oc) & (code_oc < ctrl.agc_low_code) & (att_db > 1e-9)
    steps = 1 * up - 1 * down
    moved = np.clip(np.rint((att_db + step * steps) / step) * step, 0.0, max_db)
    return np.where(steps != 0, moved, att_db)


# Cells a settle_cw search round reads, unless it has more open cells than
# this and reads each once: like estimator._BLOCK_CELLS, a bound on one
# chain_codes_cw call. On the default chain a read costs about 82 us plus
# 0.14 us a cell (timeit, best of five, 2-core shared host, Python 3.11,
# numpy 2.4): a read of about 590 cells costs twice its fixed part. Of 256,
# 512, 1024 and 2048, 256 and 512 settled the default build's first row
# fastest (0.60 ms, against 0.67 ms at 1024 and 1.1 ms by bisection).
_PROBE_CELLS = 1 << 9


def settle_cw(
    freq_hz: float | np.ndarray,
    power_dbm: float | np.ndarray,
    cfg: ChainConfig,
    ctrl: ControllerConfig,
    att0: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Settle the gain control on CW lines; returns (code_oc, code_l1, code_l2, att_db).

    The result is that of the one walk of agc_policy over readings: each
    cell starts at att0, and in each round a cell the policy moves takes
    one step and is read again through chain_codes_cw, until the policy
    leaves it where it is. The walk gets one round per attenuator step
    plus two, so a cell whose window is narrower than a step, and which
    swings between two settings, ends where that budget runs out.

    The walk's end is found by a search rather than by stepping. A CW
    cell's code_oc never rises with att_db, so the settings at which the
    policy pushes a moving cell on, in the direction of its first step, are
    a run from att0 towards that end of the attenuator. Each moving cell
    searches that run for its last setting, in rounds that read the
    still-open cells in one chain_codes_cw call: up to _PROBE_CELLS //
    (open cells) evenly spaced settings of each cell's open span, and at
    least its middle one, so that a round of many open cells is a round of
    bisection. The one-step walk then finishes each cell from there with
    the rounds it has left, so the codes and setting are the walk's, bit
    for bit.

    The three inputs broadcast like numpy arrays, and the four results have
    their broadcast shape; scalars give 0-d arrays. Every read is one
    chain_codes_cw call, in which the chain looks up its coupling and ripple
    over the cells read. Domain: chain_codes_cw's, refused in its order by
    the first read, of every cell at att0; so a frequency outside the
    chain's band raises cfg.check_band's OutOfBandError, above the stub band
    before outside a coupler's band.
    """
    shape = np.broadcast_shapes(np.shape(freq_hz), np.shape(power_dbm), np.shape(att0))
    f, p, att = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel() for x in (freq_hz, power_dbm, att0))
    att = att.copy()  # ravel may give a read-only view of the caller's array
    codes = chain_codes_cw(f, p, att, cfg)
    step, max_db = cfg.attenuator.step_db, cfg.attenuator.max_db
    n_steps = int(round(max_db / step))
    n_rounds = n_steps + 2
    nxt = agc_policy(codes[0], att, ctrl, cfg)
    moving = np.flatnonzero(nxt != att)
    # After m steps in its direction d, a moving cell is at k0 + d * m whole
    # steps, clipped to [0, max_db], as the policy rounds it. Reads show the
    # policy pushing the cell on after lo steps (att and codes hold that
    # setting's) and not after hi, which starts at the end of the
    # attenuator: max_db going up, 0 going down.
    d = np.where(nxt[moving] > att[moving], 1, -1)
    k0 = np.rint(att[moving] / step)
    lo = np.zeros(moving.size, dtype=int)
    hi = np.where(d > 0, n_steps + 1 - k0, k0).astype(int)
    open_ = np.flatnonzero(hi - lo > 1)
    while open_.size:
        # The i-th of n evenly spaced settings inside each open span, from 1;
        # a span's one setting is its middle one, lo + span // 2.
        span = hi[open_] - lo[open_]
        n = np.minimum(max(_PROBE_CELLS // open_.size, 1), span - 1)
        first = np.cumsum(n) - n
        owner = np.repeat(open_, n)
        i = np.arange(1, owner.size + 1) - np.repeat(first, n)
        m = lo[owner] + i * np.repeat(span, n) // np.repeat(n + 1, n)
        k, a = moving[owner], np.clip((k0[owner] + d[owner] * m) * step, 0.0, max_db)
        got = chain_codes_cw(f[k], p[k], a, cfg)
        # The reads at which the policy pushes on are a leading run of each
        # span's: the last of them raises its cell's lo, and the first read
        # after them lowers its hi.
        on = (agc_policy(got[0], a, ctrl, cfg) - a) * d[owner] > 0
        n_on = np.bincount(owner[on], minlength=lo.size)[open_]
        on, off = (first + n_on - 1)[n_on > 0], (first + n_on)[n_on < n]
        lo[owner[on]], hi[owner[off]] = m[on], m[off]
        att[k[on]] = a[on]
        for out, c in zip(codes, got):
            out[k[on]] = c[on]
        open_ = open_[hi[open_] - lo[open_] > 1]

    # The one-step walk finishes each cell from lo steps out, with the
    # rounds it has left: it takes the step to where the policy stops
    # pushing, and a cell whose window is narrower than a step swings there.
    left = n_rounds - lo
    for r in range(n_rounds):
        keep = left > r
        moving, left = moving[keep], left[keep]
        nxt = agc_policy(codes[0][moving], att[moving], ctrl, cfg)
        stepped = nxt != att[moving]
        moving, left = moving[stepped], left[stepped]
        if not moving.size:
            break
        att[moving] = nxt[stepped]
        for out, c in zip(codes, chain_codes_cw(f[moving], p[moving], att[moving], cfg)):
            out[moving] = c
    return codes[0].reshape(shape), codes[1].reshape(shape), codes[2].reshape(shape), att.reshape(shape)


# The mode a pending transition settles to once its time is reached.
_SETTLES_TO = {MODE_ENGAGING: MODE_ENGAGED, MODE_RELEASING: MODE_IDLE}


def on_sample(
    codes: TapCodes, st: ControllerState, ctrl: ControllerConfig, cal: CalibrationTable
) -> tuple[ControllerState, list[Action]]:
    """Process one acquisition; returns the next state and emitted actions.

    The chain is the table's, cal.cfg. An open-end reading at the detector
    floor is interpreted as signal absence (below any threshold) and is not
    estimated; other estimation failures leave the filter untouched and are
    surfaced through the diagnostic field. Raises ValueError for a code
    outside the ADC range, an att_db that is not an attenuator setting or
    a t_s that is not finite, on every sample, frozen or not; the codes
    are checked first.
    """
    chain = cal.cfg
    check_codes(codes, chain)
    now = codes.t_s
    if not math.isfinite(now):
        raise ValueError(f"t_s={now!r} is not a finite time")
    effective_at = now + ctrl.clock_period  # of every action decided on this sample
    mode, pending_at = st.mode, st.pending_at_s
    if pending_at is not None and now >= pending_at:
        mode, pending_at = _SETTLES_TO.get(mode, mode), None

    # Gain control first, so estimation sees current attenuator bookkeeping.
    att_cmd = agc_policy(codes.code_oc, st.att_db, ctrl, chain)
    stepped = att_cmd != st.att_db
    actions = [Action(ACT_SET_ATT, effective_at, att_db=att_cmd)] if stepped else []

    diagnostic = None
    if codes.code_oc >= chain.ceiling_code and st.att_db >= chain.attenuator.max_db:
        diagnostic = "overrange: code pinned at full scale with attenuator exhausted"

    frozen = st.freeze_samples > 0
    no_signal = not frozen and codes.code_oc <= chain.floor_code
    est: Estimate | None = None
    if not (frozen or no_signal):
        try:
            est = estimate(codes, cal, ctrl.switch_freq_hz)
        except SwsenseError as exc:
            diagnostic = f"{type(exc).__name__}: {exc}"

    tuned = st.tuned_freq_hz
    # A saturated open-end reading carries no usable tap ratio; hold all
    # mode decisions and let the step attenuator bring it back in range.
    usable = est is not None and est.confidence != CONF_SATURATED
    above = usable and est.power_dbm > ctrl.threshold_dbm
    if mode == MODE_ENGAGED and (no_signal or (usable and not above)):
        actions.append(Action(ACT_RELEASE, effective_at))
        mode, pending_at, tuned = MODE_RELEASING, effective_at, None
    elif above and (
        mode == MODE_IDLE
        or (mode == MODE_ENGAGED and tuned is not None and abs(est.freq_hz - tuned) > ctrl.retune_deadband_hz)
    ):
        actions.append(Action(ACT_TUNE, effective_at, freq_hz=est.freq_hz))
        mode, pending_at, tuned = MODE_ENGAGING, effective_at, est.freq_hz

    new_state = ControllerState(
        mode=mode,
        att_db=att_cmd,
        tuned_freq_hz=tuned,
        pending_at_s=pending_at,
        # A step freezes the next sample, which straddles the attenuator settling window.
        freeze_samples=1 if stepped else max(st.freeze_samples - 1, 0),
        last_estimate=est if est is not None else (None if no_signal else st.last_estimate),
        diagnostic=diagnostic,
    )
    return new_state, actions
