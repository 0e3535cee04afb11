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
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import check_not_bool, check_positive, interp
from .errors import OutOfBandError


@dataclass(frozen=True)
class ResistiveTapParams:
    """Bridge resistor r_c into a matched monitor port, on a z0 line."""

    r_c: float = 220.0
    z0: float = 50.0

    def __post_init__(self):
        check_positive(self, "r_c", "z0")


# A table is either a flat scalar or ((freq_hz, value_db), ...) breakpoints.
Table = float | tuple[tuple[float, float], ...]


# A table converted once for evaluation: a flat float, or its breakpoints
# sorted into (frequencies, values) array('d')s, which interp reads as
# Python floats and np.interp as float64 arrays.
Points = float | tuple[array, array]


def frozen_table(name: str, table) -> Table:
    """table, a number or breakpoint pairs, with its pairs as tuples and its values as given.

    A non-finite value or a breakpoint that is not a pair is a ValueError naming the field.
    """
    flat = isinstance(table, (int, float))
    try:
        pts = ((0.0, table),) if flat else tuple(map(tuple, table))
        ok = all(len(p) == 2 and all(map(math.isfinite, p)) for p in pts)
    except TypeError:  # an item that is not a sequence, or a value that is not a number
        ok = False
    if not ok:
        raise ValueError(f"{name} needs a finite number or finite (freq_hz, db) pairs, got {table!r}")
    return table if flat else pts


def table_points(table: Table) -> Points:
    """A table in the form table_value reads."""
    if isinstance(table, (int, float)):
        return float(table)
    pts = sorted(table)
    return array("d", [p[0] for p in pts]), array("d", [p[1] for p in pts])


def table_value(points: Points, f_hz: float | np.ndarray) -> float | np.ndarray:
    """A converted table at f_hz, a float or an array, interpolated piecewise-linearly and held flat past its ends."""
    if isinstance(points, float):
        return points
    if isinstance(f_hz, np.ndarray):
        return np.interp(f_hz, *points)
    return interp(float(f_hz), *points)


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
        check_not_bool(self, "f_min_hz", "f_max_hz")
        if not 0.0 < self.f_min_hz < self.f_max_hz < math.inf:
            raise ValueError(f"need 0 < f_min_hz < f_max_hz < inf, got {self.f_min_hz!r}, {self.f_max_hz!r}")
        for name in _COUPLER_TABLES:
            table = frozen_table(name, getattr(self, name))
            if table == ():
                raise ValueError(f"{name} needs a number or at least one breakpoint")
            object.__setattr__(self, name, table)
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
    level, so the result is linear in the input power. p_in_dbm must be
    finite with watts that fit a float, else ValueError naming it.
    """
    if not math.isfinite(p_in_dbm):
        raise ValueError(f"p_in_dbm must be finite, got {p_in_dbm!r}")
    try:
        ratio = 10.0 ** (p_in_dbm / 10.0)
    except OverflowError:
        raise ValueError(f"p_in_dbm={p_in_dbm!r} is too large: its watts overflow a float") from None
    k = (2.0 * p.r_c + 2.0 * p.z0) / (2.0 * p.r_c + 3.0 * p.z0)
    fraction = k * k * p.r_c * p.z0 / (p.r_c + p.z0) ** 2
    return fraction * ratio * 1e-3


def tap_input_limit_dbm(p: ResistiveTapParams, package_limit_w: float) -> float:
    """Largest input power (dBm) keeping the tap resistor within a package rating.

    package_limit_w must be positive and finite, else ValueError.
    """
    if not 0.0 < package_limit_w < math.inf:
        raise ValueError(f"package_limit_w must be positive and finite, got {package_limit_w!r}")
    one_watt_in = tap_dissipation(p, 30.0)  # dissipation at 1 W input
    return 30.0 + 10.0 * math.log10(package_limit_w / one_watt_in)


def coupler_db_at(p: DirectionalCouplerParams, table: str, f_hz: float | np.ndarray) -> float | np.ndarray:
    """One table of p ("coupling_db", "insertion_db" or "directivity_db") at f_hz.

    Tables are interpolated piecewise-linearly, as table_value reads them, at
    a float or over an array. A query outside [f_min_hz, f_max_hz] raises
    OutOfBandError; over an array, naming the first such element in C order.
    """
    f = f_hz  # compared as a plain float, as the scalar readout does per line
    if isinstance(f_hz, np.ndarray):
        out = f_hz[~((p.f_min_hz <= f_hz) & (f_hz <= p.f_max_hz))]  # ~ of numpy bools: a Python ~True is -2
        f = float(out[0]) if out.size else p.f_min_hz
    if not p.f_min_hz <= f <= p.f_max_hz:
        raise OutOfBandError(
            f"{f / 1e9:.3f} GHz outside coupler band "
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

    Domain: gamma in [0, 1], electrical_delay_s >= 0 and finite, f_hz
    positive and finite and directivity_db finite, else ValueError naming
    the argument.
    """
    g = float(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"reflection magnitude must be within [0, 1], got {g}")
    if not 0.0 <= electrical_delay_s < math.inf:
        raise ValueError(f"electrical_delay_s must be >= 0 and finite, got {electrical_delay_s!r}")
    if not 0.0 < f_hz < math.inf:
        raise ValueError(f"f_hz must be positive and finite, got {f_hz!r}")
    if not math.isfinite(directivity_db):
        raise ValueError(f"directivity_db must be finite, got {directivity_db!r}")
    phase = -2.0 * (2.0 * math.pi * f_hz * electrical_delay_s)
    leak = g * 10.0 ** (-directivity_db / 20.0)
    return abs(1.0 + leak * complex(math.cos(phase), math.sin(phase)))
