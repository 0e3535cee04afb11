"""Open-circuit sensing stub: voltages along the line versus frequency.

Driving an open quarter-wave-style stub sets up a standing wave whose
open-end magnitude depends only on the delivered power, while the voltage
at a tap a distance l from the open end scales by |cos((pi/2) f / f_max)|
with f_max = c / (4 l sqrt(eps_eff)). Each tap therefore encodes frequency
as a voltage ratio against the open end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .core import check_positive
from .errors import BijectivityError

_C0 = 299792458.0  # speed of light in vacuum, m/s


@dataclass(frozen=True)
class TapSpec:
    """One read-out position, named by the highest frequency it resolves uniquely."""

    name: str
    # Written as "f_max" in JSON; every chain_config_hash depends on that key.
    f_max_hz: float = field(metadata={"json": "f_max"})

    def __post_init__(self):
        check_positive(self, "f_max_hz")


@dataclass(frozen=True)
class StubParams:
    """Lossless open stub with read-out taps sorted by descending f_max."""

    z0s: float = 50.0
    taps: tuple[TapSpec, ...] = field(
        default_factory=lambda: (TapSpec("l1", 16e9), TapSpec("l2", 5e9))
    )
    eps_eff: float = 1.0

    def __post_init__(self):
        check_positive(self, "z0s", "eps_eff")
        object.__setattr__(self, "taps", tuple(self.taps))
        fs = tuple(t.f_max_hz for t in self.taps)
        if list(fs) != sorted(fs, reverse=True):
            raise ValueError("taps must be ordered by descending f_max_hz")
        # Read by tap_rms_voltages on every call. Not a field, so the JSON
        # codec, equality and repr never see it.
        object.__setattr__(self, "_f_max_hz", fs)


def v_oc_magnitude(p_stub_w: float, z0s: float) -> float:
    """Open-end voltage magnitude for power p_stub_w delivered into the stub.

    p_stub_w must be >= 0 and finite and z0s positive and finite, else
    ValueError naming the argument.
    """
    if not 0.0 <= p_stub_w < math.inf:
        raise ValueError(f"p_stub_w must be >= 0 and finite, got {p_stub_w!r}")
    if not 0.0 < z0s < math.inf:
        raise ValueError(f"z0s must be positive and finite, got {z0s!r}")
    return math.sqrt(8.0 * p_stub_w * z0s)


def standing_ratio(f_hz: float, f_max_hz: float) -> float:
    """Tap-to-open-end voltage ratio cos((pi/2) f / f_max), monotone on (0, f_max].

    Raises BijectivityError outside that range; use wrapped_ratio for the
    physical (periodic, non-invertible) response beyond f_max.
    """
    if not 0.0 < f_hz <= f_max_hz:
        raise BijectivityError(
            f"{f_hz / 1e9:.3f} GHz outside the monotone range (0, {f_max_hz / 1e9:.3f}] GHz"
        )
    return math.cos(math.pi / 2.0 * f_hz / f_max_hz)


def wrapped_ratio(f_hz: float, f_max_hz: float) -> float:
    """|cos((pi/2) f / f_max)| for any positive frequency (periodic response)."""
    return abs(math.cos(math.pi / 2.0 * f_hz / f_max_hz))


def tap_length(f_max_hz: float, eps_eff: float = 1.0) -> float:
    """Distance from the open end placing the first null at f_max_hz, in meters."""
    for name, x in (("f_max_hz", f_max_hz), ("eps_eff", eps_eff)):
        if not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return _C0 / (4.0 * f_max_hz * math.sqrt(eps_eff))


def tap_rms_voltages(
    expanded: Sequence[tuple[float, float]], stub: StubParams
) -> tuple[float, list[float]]:
    """(open-end voltage, per-tap voltages) for expanded (freq_hz, p_stub_w) lines.

    Lines at distinct frequencies are uncorrelated, so their standing-wave
    contributions add in power at every position along the stub: a tap
    sums v_oc^2 * r^2 over the lines, with r = wrapped_ratio(f, f_max).
    The cosine is written out here, and its sign cancels in the square.

    Domain: every frequency is positive and finite and every power >= 0
    and finite, else ValueError naming the line.
    """
    z0s = stub.z0s
    half_pi = math.pi / 2.0
    cos, sqrt = math.cos, math.sqrt
    oc_sq = 0.0
    lines = []
    for i, (f_hz, p_w) in enumerate(expanded):
        if not 0.0 < f_hz < math.inf:
            raise ValueError(f"line {i}: frequency {f_hz!r} Hz is not positive and finite")
        if not 0.0 <= p_w < math.inf:
            raise ValueError(f"line {i} at {f_hz / 1e9:.3f} GHz: stub power {p_w!r} W is not >= 0 and finite")
        v_sq = 8.0 * p_w * z0s
        oc_sq += v_sq
        lines.append((f_hz, v_sq))
    taps = []
    for f_max in stub._f_max_hz:
        tap_sq = 0.0
        for f_hz, v_sq in lines:
            c = cos(half_pi * f_hz / f_max)
            tap_sq += v_sq * c * c
        taps.append(sqrt(tap_sq))
    return sqrt(oc_sq), taps
