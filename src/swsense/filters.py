"""Tunable bandstop (notch) filters used to suppress detected interferers.

Two families are modeled: fast evanescent-mode PIN-diode notches whose
stopband depth degrades at high incident power, and slower YIG-style
notches with power-independent depth. A reflective notch bounces the
stopped power back toward the pick-off network instead of absorbing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import check_not_bool, check_positive
from .errors import TuningRangeError

MIN_DEPTH_DB = 3.0  # depth floor when power-handling compression is severe


@dataclass(frozen=True)
class NotchModel:
    """Second-order-shaped tunable notch."""

    kind: str = "evanescent_pin"  # "evanescent_pin", "yig", or "ideal"
    depth_db: float = 30.0
    bw_3db_hz: float = 100e6
    f_tune_range_hz: tuple[float, float] = (1e9, 16e9)
    tuning_time_s: float = 50e-9
    reflective: bool = True
    # Depth compression above the power knee, evanescent family only.
    power_knee_dbm: float = 10.0
    depth_slope_db_per_db: float = 1.5

    def __post_init__(self):
        if self.kind not in ("evanescent_pin", "yig", "ideal"):
            raise ValueError("kind must be 'evanescent_pin', 'yig', or 'ideal'")
        check_positive(self, "depth_db", "bw_3db_hz")
        check_not_bool(self, "tuning_time_s", "power_knee_dbm", "depth_slope_db_per_db")
        if not 0.0 <= self.tuning_time_s < math.inf:
            raise ValueError(f"tuning_time_s must be >= 0 and finite, got {self.tuning_time_s!r}")
        for name in ("power_knee_dbm", "depth_slope_db_per_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        pair = tuple(self.f_tune_range_hz)
        if len(pair) != 2 or not 0.0 < pair[0] < pair[1] < math.inf:
            raise ValueError(f"f_tune_range_hz must be an increasing pair in (0, inf), got {self.f_tune_range_hz!r}")
        object.__setattr__(self, "f_tune_range_hz", pair)

    @staticmethod
    def yig(**overrides) -> "NotchModel":
        """YIG-style notch: deeper, power-independent, much slower to tune."""
        base = dict(
            kind="yig",
            depth_db=40.0,
            bw_3db_hz=100e6,
            tuning_time_s=100e-6,
            depth_slope_db_per_db=0.0,
        )
        base.update(overrides)
        return NotchModel(**base)


@dataclass(frozen=True)
class FilterState:
    """Engagement state of one notch instance."""

    engaged: bool = False
    f_center_hz: float = 0.0
    transition_until_s: float = 0.0

    def in_transition(self, t_s: float) -> bool:
        return self.engaged and t_s < self.transition_until_s


def effective_depth_db(model: NotchModel, p_in_dbm: float) -> float:
    """Stopband depth after power-handling compression, floored at MIN_DEPTH_DB.

    A NaN p_in_dbm is a ValueError.
    """
    if math.isnan(p_in_dbm):
        raise ValueError("p_in_dbm must not be NaN")
    over = max(0.0, p_in_dbm - model.power_knee_dbm)
    return max(MIN_DEPTH_DB, model.depth_db - model.depth_slope_db_per_db * over)


def _check_read(f_hz: float, p_in_dbm: float, t_s: float) -> None:
    """ValueError naming the argument unless f_hz is positive and finite, p_in_dbm not NaN and t_s finite."""
    if not 0.0 < f_hz < math.inf:
        raise ValueError(f"f_hz must be positive and finite, got {f_hz!r}")
    if math.isnan(p_in_dbm):
        raise ValueError("p_in_dbm must not be NaN")
    if not math.isfinite(t_s):
        raise ValueError(f"t_s={t_s!r} is not a finite time")


def notch_s21_db(
    model: NotchModel, state: FilterState, f_hz: float, p_in_dbm: float, t_s: float
) -> float:
    """Through-path gain of the notch in dB at frequency f_hz.

    Disengaged or mid-transition (the notch is parked off-channel while it
    retunes) the filter is transparent. Engaged, the rejection follows a
    Lorentzian dB profile centered on f_center_hz.

    Domain, checked before the state is read: f_hz is positive and finite,
    p_in_dbm is not NaN and t_s is finite, else ValueError naming the
    argument.
    """
    _check_read(f_hz, p_in_dbm, t_s)
    if not state.engaged or state.in_transition(t_s):
        return 0.0
    depth = (
        effective_depth_db(model, p_in_dbm)
        if model.kind == "evanescent_pin"
        else model.depth_db
    )
    x = (f_hz - state.f_center_hz) / (model.bw_3db_hz / 2.0)
    return -depth / (1.0 + x * x)


def stopband_gamma(
    model: NotchModel, state: FilterState, f_hz: float, p_in_dbm: float, t_s: float
) -> float:
    """Reflection magnitude of the notch; |s21|^2 + |gamma|^2 = 1 when reflective.

    Reflective or absorptive, the notch refuses what notch_s21_db refuses,
    with its messages.
    """
    if not model.reflective:
        _check_read(f_hz, p_in_dbm, t_s)
        return 0.0
    s21_lin = 10.0 ** (notch_s21_db(model, state, f_hz, p_in_dbm, t_s) / 20.0)
    return math.sqrt(max(0.0, 1.0 - s21_lin * s21_lin))


def tune(model: NotchModel, f_target_hz: float, t_s: float) -> FilterState:
    """Engage (or retune) the notch toward f_target_hz starting at time t_s.

    The transition clock restarts on every retune; until it expires the
    notch is transparent at all frequencies. A t_s that is not finite is a
    ValueError.
    """
    if not math.isfinite(t_s):
        raise ValueError(f"t_s={t_s!r} is not a finite time")
    lo, hi = model.f_tune_range_hz
    if not lo <= f_target_hz <= hi:
        raise TuningRangeError(
            f"{f_target_hz / 1e9:.3f} GHz outside tuning range "
            f"[{lo / 1e9:.3f}, {hi / 1e9:.3f}] GHz"
        )
    return FilterState(
        engaged=True,
        f_center_hz=f_target_hz,
        transition_until_s=t_s + model.tuning_time_s,
    )


def release(state: FilterState) -> FilterState:
    """Disengage the notch; it becomes transparent immediately."""
    return replace(state, engaged=False)
