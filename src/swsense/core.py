"""Signal descriptions and power unit conversions.

Narrowband sources are described as tones with dBm powers. A modulated
carrier is approximated by a flat comb of subtones spanning its occupied
bandwidth; carrier phase is not modeled, so tones at distinct frequencies
combine power-wise everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def dbm_to_watts(p_dbm: float) -> float:
    """Convert dBm to watts."""
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def check_watts(p_dbm: float) -> None:
    """ValueError naming p_dbm when its watts, dbm_to_watts(p_dbm), overflow a float."""
    try:
        dbm_to_watts(p_dbm)
    except OverflowError:
        raise ValueError(f"power {p_dbm!r} dBm is too large: its watts overflow a float") from None


def check_positive(obj, *names: str) -> None:
    """ValueError naming the first of obj's fields that is not positive and finite; NaN is neither."""
    for name in names:
        x = getattr(obj, name)
        if not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x!r}")


def watts_to_dbm(p_w: float) -> float:
    """Convert watts to dBm. Requires p_w > 0."""
    if p_w <= 0.0:
        raise ValueError(f"power must be positive, got {p_w} W")
    return 10.0 * math.log10(p_w / 1e-3)


@dataclass(frozen=True)
class Tone:
    """One narrowband source.

    occupied_bw_hz = 0 describes a CW tone. A nonzero bandwidth marks a
    modulated carrier that expand_modulated() splits into n_subtones
    equal-power lines. n_subtones defaults to 1 for CW and 31 otherwise.
    t_on_s/t_off_s bound the interval during which the tone is active.
    """

    freq_hz: float
    power_dbm: float
    t_on_s: float = 0.0
    t_off_s: float = math.inf
    occupied_bw_hz: float = 0.0
    n_subtones: int = 0  # 0 = pick default from bandwidth

    def __post_init__(self):
        if not (math.isfinite(self.freq_hz) and self.freq_hz > 0.0):
            raise ValueError(f"freq_hz must be finite and positive, got {self.freq_hz}")
        if not math.isfinite(self.power_dbm):
            raise ValueError(f"power_dbm must be finite, got {self.power_dbm}")
        check_watts(self.power_dbm)
        # Each check fails for a NaN; t_off_s may be inf.
        if not 0.0 <= self.occupied_bw_hz < math.inf:
            raise ValueError(f"occupied_bw_hz must be >= 0 and finite, got {self.occupied_bw_hz!r}")
        if not -math.inf < self.t_on_s < self.t_off_s:
            raise ValueError(f"need -inf < t_on_s < t_off_s, got t_on_s={self.t_on_s!r}, t_off_s={self.t_off_s!r}")
        if self.n_subtones == 0:
            object.__setattr__(self, "n_subtones", 1 if self.occupied_bw_hz == 0.0 else 31)
        if self.occupied_bw_hz == 0.0 and self.n_subtones != 1:
            raise ValueError("CW tone must have n_subtones == 1")
        if self.occupied_bw_hz > 0.0:
            if self.n_subtones < 3 or self.n_subtones % 2 == 0:
                raise ValueError("modulated tone needs an odd n_subtones >= 3")
            if self.occupied_bw_hz / 2.0 >= self.freq_hz:
                raise ValueError("occupied bandwidth extends below DC")

    def active(self, t_s: float) -> bool:
        """True while the tone is switched on at time t_s."""
        return self.t_on_s <= t_s < self.t_off_s


@dataclass(frozen=True)
class SignalDescriptor:
    """A collection of simultaneously present tones.

    lines holds expand_signal(self) as a tuple, computed once when the
    descriptor is made. It is not a field, so equality, repr, hash and the
    JSON codec never see it.
    """

    tones: tuple[Tone, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        object.__setattr__(self, "lines", tuple(expand_signal(self)))


def expand_modulated(tone: Tone) -> list[tuple[float, float]]:
    """Expand a tone into (freq_hz, watts) lines conserving total power.

    A CW tone maps to a single line. A modulated tone becomes n_subtones
    equally spaced, equal-power lines spanning [f - bw/2, f + bw/2] with
    both endpoints included.
    """
    total_w = dbm_to_watts(tone.power_dbm)
    n = tone.n_subtones
    if tone.occupied_bw_hz == 0.0 or n == 1:
        return [(tone.freq_hz, total_w)]
    lo = tone.freq_hz - tone.occupied_bw_hz / 2.0
    step = tone.occupied_bw_hz / (n - 1)
    per = total_w / n
    return [(lo + i * step, per) for i in range(n)]


def expand_signal(sig: SignalDescriptor) -> list[tuple[float, float]]:
    """Expand every tone in a descriptor into one flat (freq_hz, watts) list."""
    out: list[tuple[float, float]] = []
    for tone in sig.tones:
        out.extend(expand_modulated(tone))
    return out
