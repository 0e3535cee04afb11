"""Signal descriptions, power unit conversions and scalar interpolation.

Narrowband sources are described as tones with dBm powers. A modulated
carrier is approximated by a flat comb of subtones spanning its occupied
bandwidth; carrier phase is not modeled, so tones at distinct frequencies
combine power-wise everywhere downstream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field


def dbm_to_watts(p_dbm: float) -> float:
    """Convert dBm to watts.

    ValueError naming p_dbm when it is NaN or its watts overflow a float
    (above about 3082.5 dBm); -inf dBm is 0 W.
    """
    try:
        p_w = 10.0 ** (p_dbm / 10.0) * 1e-3
        if p_w < math.inf:  # NaN is not, nor are a numpy float's overflowed watts
            return p_w
    except OverflowError:
        pass
    if p_dbm != p_dbm:
        raise ValueError(f"power {p_dbm!r} dBm is not a number")
    raise ValueError(f"power {p_dbm!r} dBm is too large: its watts overflow a float")


def check_positive(obj, *names: str) -> None:
    """ValueError naming the first of obj's fields that is not positive and finite; NaN is neither, nor is a bool."""
    for name in names:
        x = getattr(obj, name)
        if isinstance(x, bool) or not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {x!r}")


def check_not_bool(obj, *names: str) -> None:
    """ValueError naming the first of obj's fields that holds a bool, which would pass as the number 0 or 1."""
    # getattr, not vars(obj): reading an instance's __dict__ makes CPython
    # keep its attributes in a dict, which slows every later read of them.
    for name in names:
        x = getattr(obj, name)
        if isinstance(x, bool):
            raise ValueError(f"{name} must be a number, not a bool; got {x!r}")


def watts_to_dbm(p_w: float) -> float:
    """Convert watts to dBm. ValueError unless p_w > 0, which NaN is not."""
    if not p_w > 0.0:
        raise ValueError(f"power must be positive, got {p_w} W")
    return 10.0 * math.log10(p_w / 1e-3)


def interp(x: float, xs, ys) -> float:
    """float(np.interp(x, xs, ys)) for one float x, on sequences of Python floats.

    xs ascends, repeats allowed. The branches are numpy's, in its order:
    ys[0] below xs[0], ys[-1] at or past xs[-1], ys[j] exactly on xs[j],
    otherwise the same slope and the same arithmetic, for finite xs and ys
    (numpy's retries after a NaN slope, which only infinite values give,
    are not ported). A NaN x gives NaN, or ys[0] when xs has one point, as
    numpy answers it, equal ys included.
    A bisection over plain floats costs a fraction of numpy's per-call
    overhead, so the per-reading lookups use this and arrays np.interp.
    """
    j = bisect_right(xs, x)
    if j == len(xs):
        return ys[-1] if x >= xs[-1] or j == 1 else x  # only a NaN x fails both
    if not j:
        return ys[0]
    j -= 1
    x0 = xs[j]
    if x == x0:
        return ys[j]
    y0 = ys[j]
    return (ys[j + 1] - y0) / (xs[j + 1] - x0) * (x - x0) + y0


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
        check_not_bool(self, "freq_hz", "power_dbm", "t_on_s", "t_off_s", "occupied_bw_hz", "n_subtones")
        if not (math.isfinite(self.freq_hz) and self.freq_hz > 0.0):
            raise ValueError(f"freq_hz must be finite and positive, got {self.freq_hz}")
        if not math.isfinite(self.power_dbm):
            raise ValueError(f"power_dbm must be finite, got {self.power_dbm}")
        dbm_to_watts(self.power_dbm)  # refuses a power whose watts overflow a float
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
