"""Signal pick-off networks: resistive tap and directional coupler.

The resistive tap is a single resistor bridging the through line to a
matched monitor port. Its coupling, match, and insertion loss follow in
closed form from the three-resistor divider it forms with the line
impedance. The directional coupler variant is described by measured
tables over a finite band. Either kind passes a fraction of a downstream
reflection into its monitor port, set by its directivity: a tap samples
the forward and reflected waves alike, so its directivity is 0 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import OutOfBandError


@dataclass(frozen=True)
class ResistiveTapParams:
    """Bridge resistor r_c into a matched monitor port, on a z0 line."""

    r_c: float = 220.0
    z0: float = 50.0

    def __post_init__(self):
        if self.r_c <= 0.0 or self.z0 <= 0.0:
            raise ValueError("r_c and z0 must be positive")


# A table is either a flat scalar or [(freq_hz, value_db), ...] breakpoints.
Table = float | Sequence[tuple[float, float]]


# A table converted once for evaluation: a flat float, or its breakpoints
# sorted into (frequencies, values) arrays.
Points = float | tuple[np.ndarray, np.ndarray]


def table_points(table: Table) -> Points:
    """A table in the form table_value reads."""
    if isinstance(table, (int, float)):
        return float(table)
    pts = sorted(table)
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


def table_value(points: Points, f_hz: float) -> float:
    """A converted table at f_hz, interpolated piecewise-linearly and held flat past its ends."""
    if isinstance(points, float):
        return points
    return float(np.interp(f_hz, *points))


# The three tables of a DirectionalCouplerParams.
_COUPLER_TABLES = ("coupling_db", "insertion_db", "directivity_db")


@dataclass(frozen=True)
class DirectionalCouplerParams:
    """Banded coupler characterized by coupling/insertion/directivity tables."""

    coupling_db: Table = -15.0
    insertion_db: Table = field(default_factory=lambda: ((1e9, 0.8), (14e9, 1.6)))
    directivity_db: Table = 6.0
    f_min_hz: float = 1e9
    f_max_hz: float = 14e9

    def __post_init__(self):
        if self.f_min_hz <= 0.0 or self.f_max_hz <= self.f_min_hz:
            raise ValueError("coupler band must satisfy 0 < f_min < f_max")
        for name in ("coupling_db", "insertion_db", "directivity_db"):
            table = getattr(self, name)
            if not isinstance(table, (int, float)) and len(table) == 0:
                raise ValueError(f"{name} needs a number or at least one breakpoint")
        # Converted once here. Not a field, so the JSON codec, equality and
        # repr never see it.
        object.__setattr__(self, "_points", {name: table_points(getattr(self, name)) for name in _COUPLER_TABLES})


def tap_coupling(p: ResistiveTapParams) -> float:
    """Power coupling of the tap into its monitor port, in dB (negative)."""
    return 20.0 * math.log10(2.0 * p.z0 / (2.0 * p.r_c + 3.0 * p.z0))


def tap_sparams(p: ResistiveTapParams) -> tuple[float, float]:
    """(s11_db, s21_db) of the through line with the tap attached."""
    denom = 2.0 * p.r_c + 3.0 * p.z0
    s11 = 20.0 * math.log10(p.z0 / denom)
    s21 = 20.0 * math.log10((2.0 * p.r_c + 2.0 * p.z0) / denom)
    return s11, s21


def tap_dissipation(p: ResistiveTapParams, p_in_dbm: float) -> float:
    """Average power burned in the tap resistor, in watts.

    The dissipated fraction of the incident power is k^2 * r_c*z0/(r_c+z0)^2
    with k the through-line voltage transfer; it does not depend on drive
    level, so the result is linear in the input power.
    """
    k = (2.0 * p.r_c + 2.0 * p.z0) / (2.0 * p.r_c + 3.0 * p.z0)
    fraction = k * k * p.r_c * p.z0 / (p.r_c + p.z0) ** 2
    return fraction * 10.0 ** (p_in_dbm / 10.0) * 1e-3


def tap_input_limit_dbm(p: ResistiveTapParams, package_limit_w: float) -> float:
    """Largest input power (dBm) keeping the tap resistor within a package rating."""
    one_watt_in = tap_dissipation(p, 30.0)  # dissipation at 1 W input
    return 30.0 + 10.0 * math.log10(package_limit_w / one_watt_in)


def coupler_db_at(p: DirectionalCouplerParams, table: str, f_hz: float) -> float:
    """One table of p ("coupling_db", "insertion_db" or "directivity_db") at f_hz.

    Tables are interpolated piecewise-linearly; queries outside
    [f_min_hz, f_max_hz] raise OutOfBandError.
    """
    if not p.f_min_hz <= f_hz <= p.f_max_hz:
        raise OutOfBandError(
            f"{f_hz / 1e9:.3f} GHz outside coupler band "
            f"[{p.f_min_hz / 1e9:.3f}, {p.f_max_hz / 1e9:.3f}] GHz"
        )
    return table_value(p._points[table], f_hz)


def coupler_response(p: DirectionalCouplerParams, f_hz: float) -> tuple[float, float, float]:
    """(coupling_db, insertion_db, directivity_db) at f_hz; see coupler_db_at."""
    return tuple(coupler_db_at(p, name, f_hz) for name in _COUPLER_TABLES)


def sampled_forward_amplitude(
    gamma: float,
    electrical_delay_s: float,
    f_hz: float,
    directivity_db: float = 0.0,
) -> float:
    """Ratio of the monitored amplitude to the pure forward wave.

    gamma (0..1) is the magnitude of a reflection electrical_delay_s
    (one way) downstream of the pick-off. The pick-off passes that
    reflection attenuated by its directivity: 0 dB for a resistive tap,
    which samples the standing-wave sum of forward and reflected waves,
    and the coupler's directivity table for a directional coupler.
    """
    g = float(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"reflection magnitude must be within [0, 1], got {g}")
    phase = -2.0 * (2.0 * math.pi * f_hz * electrical_delay_s)
    leak = g * 10.0 ** (-directivity_db / 20.0)
    return abs(1.0 + leak * complex(math.cos(phase), math.sin(phase)))
