"""Conditioning and read-out chain: attenuator, amplifier, log detectors, ADC.

chain_readout composes the whole monitor path for a signal descriptor:
pick-off coupling, step attenuation, saturating gain, stub drive, per-tap
standing-wave voltages, logarithmic detection, and ADC quantization. The
same composition runs unquantized via chain_voltages for analysis, and
over whole arrays of CW cells via chain_codes_cw, which the gain-control
settle (controller.settle_cw) reads its cells through.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .codec import from_json, load, save, to_json
from .core import (
    SignalDescriptor,
    check_not_bool,
    check_positive,
    dbm_to_watts,
    expand_signal,  # unused here; perfbench/tracer.py rebinds this name
)
from .coupling import (
    DirectionalCouplerParams,
    ResistiveTapParams,
    coupler_db_at,
    coupler_response,  # unused here; perfbench/tracer.py rebinds this name
    frozen_table,
    table_points,
    table_value,
    tap_coupling,
    tap_sparams,
)
from .errors import OutOfBandError
from .stub import (
    StubParams,
    tap_rms_voltages,  # unused here; perfbench/tracer.py rebinds this name
)


@dataclass(frozen=True)
class AttenuatorParams:
    """Digital step attenuator ahead of the gain stage."""

    step_db: float = 0.25
    max_db: float = 31.75

    def __post_init__(self):
        check_not_bool(self, "step_db", "max_db")
        if not (0.0 < self.step_db <= self.max_db and self.max_db / self.step_db < math.inf):
            raise ValueError(f"need 0 < step_db <= max_db, max_db / step_db < inf, got {self.step_db}, {self.max_db}")
        # The gain-control loop steps up to max_db, so it must be a setting.
        if not self.valid_setting(self.max_db):
            raise ValueError("max_db must be a whole number of step_db")
        # The settings as k * step_db, which check_setting accepts without
        # arithmetic; a finer attenuator keeps its first 4096 only. Not a
        # field, so the JSON codec, equality and repr never see it.
        n = min(int(round(self.max_db / self.step_db)), 4095)
        exact = (k * self.step_db for k in range(n + 1))
        object.__setattr__(self, "_settings", frozenset(a for a in exact if self.valid_setting(a)))

    def valid_setting(self, att_db: float) -> bool:
        if not 0.0 <= att_db <= self.max_db + 1e-9:
            return False
        steps = att_db / self.step_db
        return abs(steps - round(steps)) < 1e-6

    def check_setting(self, att_db: float) -> None:
        """ValueError unless att_db is a setting of this attenuator."""
        # Only a float is looked up: an unhashable value, such as a 0-d
        # array, would raise here, and valid_setting decides it as before.
        if isinstance(att_db, float) and att_db in self._settings:
            return
        if not self.valid_setting(att_db):
            raise ValueError(
                f"att_db={att_db} is not a multiple of {self.step_db} "
                f"within [0, {self.max_db}]"
            )


@dataclass(frozen=True)
class AmplifierParams:
    """Fixed-gain driver with a hard output power ceiling."""

    gain_db: float = 20.0
    p_out_sat_dbm: float = 20.0

    def __post_init__(self):
        check_not_bool(self, "gain_db", "p_out_sat_dbm")
        for name in ("gain_db", "p_out_sat_dbm"):  # the chain scales by 10 ** (x / 10) of each
            x = getattr(self, name)
            try:
                fits = math.isfinite(x) and 10.0 ** (x / 10.0) < math.inf
            except OverflowError:
                fits = False
            if not fits:
                raise ValueError(f"{name} must be finite with a linear factor that fits a float, got {x!r}")


@dataclass(frozen=True)
class DetectorParams:
    """Log detector v_det = slope_a * log10(v) + intercept_b over its linear range.

    Inputs outside [v_in_min, v_in_max] volts clamp to the range edges,
    reproducing the low-power floor and high-power saturation of real
    detectors. The default range spans 40 dB placed around the held
    operating point of the default chain.
    """

    slope_a: float = 0.4
    intercept_b: float = 1.0
    v_in_min: float = 0.014
    v_in_max: float = 1.4

    def __post_init__(self):
        check_not_bool(self, "intercept_b", "v_in_min", "v_in_max")
        check_positive(self, "slope_a")
        if not math.isfinite(self.intercept_b):
            raise ValueError(f"intercept_b must be finite, got {self.intercept_b!r}")
        if not 0.0 < self.v_in_min < self.v_in_max < math.inf:
            raise ValueError(f"need 0 < v_in_min < v_in_max < inf, got {self.v_in_min!r}, {self.v_in_max!r}")


@dataclass(frozen=True)
class AdcParams:
    """Flash ADC digitizing the detector outputs.

    lsb (volts per code) and full_code (the top code) are computed once,
    when the params are made.
    """

    bits: int = 12
    sample_rate: float = 5e6
    v_fs: float = 1.398

    def __post_init__(self):
        if not 6 <= self.bits <= 16:
            raise ValueError("bits must lie in [6, 16]")
        check_positive(self, "sample_rate", "v_fs")
        # Not fields, so the JSON codec, equality and repr never see them.
        object.__setattr__(self, "lsb", self.v_fs / 2**self.bits)
        object.__setattr__(self, "full_code", 2**self.bits - 1)

    @property
    def sample_period(self) -> float:
        return 1.0 / self.sample_rate


@dataclass(frozen=True)
class ChainConfig:
    """Every hardware parameter of one sensing stage; a tap chain carries no coupler block.

    floor_code and ceiling_code, the ADC codes of a detector input at
    v_in_min and at v_in_max, are computed once, when the chain is made, and
    so is band_hz, the (low, high) edges of the band the chain reads: up to
    the first tap's f_max, where the stub response repeats, and on a coupler
    chain inside the coupler's [f_min_hz, f_max_hz]. A tap chain's low edge
    is 0.0, which no frequency reaches. check_band refuses a frequency
    outside it. A coupler whose f_min_hz lies above the stub band would
    leave the band empty, and is refused with a ValueError, and so is a
    detector whose range reads as one ADC code, which no input could move
    and no gain-control window could fit.
    """

    coupling_kind: str = "tap"  # "tap" or "coupler"
    tap: ResistiveTapParams = field(default_factory=ResistiveTapParams)
    coupler: DirectionalCouplerParams | None = None
    stub: StubParams = field(default_factory=StubParams)
    attenuator: AttenuatorParams = field(default_factory=AttenuatorParams)
    amplifier: AmplifierParams = field(default_factory=AmplifierParams)
    detector: DetectorParams = field(default_factory=DetectorParams)
    adc: AdcParams = field(default_factory=AdcParams)
    # Optional monitor-path gain ripple versus frequency, ((freq_hz, db), ...).
    gain_ripple: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.coupling_kind not in ("tap", "coupler"):
            raise ValueError("coupling_kind must be 'tap' or 'coupler'")
        if self.coupling_kind == "coupler" and self.coupler is None:
            object.__setattr__(self, "coupler", DirectionalCouplerParams())
        if self.coupling_kind == "tap" and self.coupler is not None:
            raise ValueError("coupler must be null on a tap chain; set coupling_kind to 'coupler' to read through it")
        if len(self.stub.taps) != 2:
            raise ValueError("read-out chain expects exactly two stub taps")
        if self.gain_ripple is not None:
            object.__setattr__(self, "gain_ripple", frozen_table("gain_ripple", self.gain_ripple))
        # Computed once, like the coupler's tables. Not fields, so the JSON
        # codec, equality, repr and chain_config_hash never see them.
        object.__setattr__(self, "_ripple", table_points(self.gain_ripple) if self.gain_ripple else None)
        object.__setattr__(self, "_tap_coupling_db", tap_coupling(self.tap))
        object.__setattr__(self, "_tap_through_db", -tap_sparams(self.tap)[1])
        # The amplifier's output ceiling, in watts.
        object.__setattr__(self, "_sat_w", 10.0 ** (self.amplifier.p_out_sat_dbm / 10.0) * 1e-3)
        # What chain_voltages_lines and chain_readout_lines read on every call:
        # the stub band edge, the detector law as (v_in_min, v_in_max,
        # slope_a, intercept_b) and the ADC's (lsb, full_code).
        object.__setattr__(self, "_stub_band_hz", self.stub.taps[0].f_max_hz)
        det = self.detector
        object.__setattr__(self, "_det_law", (det.v_in_min, det.v_in_max, det.slope_a, det.intercept_b))
        lsb, full = self.adc.lsb, self.adc.full_code
        object.__setattr__(self, "_adc_codes", (lsb, full))
        # The law at v_in_min and at v_in_max, quantized as chain_readout_lines quantizes.
        for name, v in (("floor_code", det.v_in_min), ("ceiling_code", det.v_in_max)):
            code = math.floor((det.slope_a * math.log10(v) + det.intercept_b) / lsb)
            object.__setattr__(self, name, 0 if code < 0 else full if code > full else code)
        if not self.floor_code < self.ceiling_code:
            raise ValueError(
                f"detector range [{det.v_in_min!r}, {det.v_in_max!r}] V reads as the one ADC code "
                f"{self.floor_code}: the chain needs a floor_code below its ceiling_code"
            )
        c = self.coupler
        if c is not None and c.f_min_hz > self._stub_band_hz:
            raise ValueError(
                f"coupler f_min_hz={c.f_min_hz!r} lies above the stub band edge, "
                f"{self._stub_band_hz / 1e9:.3f} GHz (tap {self.stub.taps[0].name}'s f_max): the chain's band is empty"
            )
        band = (0.0, self._stub_band_hz) if c is None else (c.f_min_hz, min(self._stub_band_hz, c.f_max_hz))
        object.__setattr__(self, "band_hz", band)

    def check_band(self, f_hz: float | np.ndarray) -> None:
        """OutOfBandError unless f_hz, a positive frequency or an array of them, lies in band_hz.

        The one band check, in the forward model's order: first the stub
        band, naming an array's largest frequency; then a coupler chain's
        coupler band, naming an array's first offender in C order. Callers
        refuse a frequency that is not positive and finite before this.
        """
        is_array = isinstance(f_hz, np.ndarray)
        f_top = float(f_hz.max(initial=0.0)) if is_array else f_hz
        if f_top > self._stub_band_hz:
            raise OutOfBandError(
                f"{f_top / 1e9:.3f} GHz above the stub band (tap {self.stub.taps[0].name} "
                f"resolves up to {self._stub_band_hz / 1e9:.3f} GHz)"
            )
        if self.coupler is not None:
            lo, hi = self.band_hz
            f_bottom = float(f_hz.min(initial=lo)) if is_array else f_hz
            if f_bottom < lo or f_top > hi:
                # The coupler's lookup words the refusal, naming the first offender.
                coupler_db_at(self.coupler, "coupling_db", f_hz)

    def coupling_db_at(self, f_hz: float) -> float:
        if self.coupling_kind == "tap":
            return self._tap_coupling_db
        return coupler_db_at(self.coupler, "coupling_db", f_hz)

    def through_loss_db_at(self, f_hz: float) -> float:
        """Through-line insertion of the pick-off network, in dB >= 0."""
        if self.coupling_kind == "tap":
            return self._tap_through_db
        return coupler_db_at(self.coupler, "insertion_db", f_hz)

    def directivity_db_at(self, f_hz: float) -> float:
        """Pick-off directivity at f_hz, in dB.

        A downstream reflection reaches the monitor port this far below the
        forward wave. A resistive tap samples the two alike, so it is 0 dB.
        """
        if self.coupling_kind == "tap":
            return 0.0
        return coupler_db_at(self.coupler, "directivity_db", f_hz)

    def ripple_db_at(self, f_hz: float) -> float:
        return table_value(self._ripple, f_hz) if self.gain_ripple else 0.0


class TapCodes(NamedTuple):
    """One synchronous ADC acquisition of the three detector outputs.

    A NamedTuple, built once per readout: immutable, compared and hashed
    field by field; a changed copy is codes._replace(att_db=...).
    """

    t_s: float
    code_oc: int
    code_l1: int
    code_l2: int
    att_db: float


def _refuse_line(i: int, f_hz: float, p_w: float, ratio: float, cfg: ChainConfig) -> None:
    """Raise the error for line i, which failed chain_voltages_lines' domain check."""
    if not 0.0 < f_hz < math.inf:
        raise ValueError(f"line {i}: frequency {f_hz!r} Hz is not positive and finite")
    cfg.check_band(f_hz)
    if not 0.0 <= p_w < math.inf:
        raise ValueError(f"line {i} at {f_hz / 1e9:.3f} GHz: power {p_w!r} W is not >= 0 and finite")
    raise ValueError(f"line {i} at {f_hz / 1e9:.3f} GHz: forward ratio {ratio!r} is not >= 0 and finite")


def chain_voltages_lines(
    lines: Sequence[tuple[float, float]],
    cfg: ChainConfig,
    att_db: float,
    forward_ratios: Sequence[float] | None = None,
) -> tuple[float, float, float]:
    """Unquantized detector voltages (open end, tap 1, tap 2).

    lines are (freq_hz, input-referred watts) pairs. forward_ratios, when
    given, holds one factor per line that scales the monitored amplitude
    to account for downstream reflections at the pick-off point.

    Domain: att_db is an attenuator setting (else ValueError); every
    frequency is positive and finite, every power and ratio >= 0 and
    finite, and forward_ratios has one entry per line (else ValueError
    naming the line). A line outside the chain's band raises
    cfg.check_band's OutOfBandError, above the stub band before outside a
    coupler's band.
    A line whose watts after the gain (and its ratio) overflow a float
    raises ValueError naming it, and so do lines whose sum overflows,
    before any NaN reaches the detectors.

    One pass over the lines applies the pick-off coupling, the attenuator,
    the gain and its ripple, and sums the standing wave at the open end
    and at each tap with tap_rms_voltages' arithmetic, in line order. When
    the total exceeds the amplifier ceiling, the three sums are scaled to
    it, which keeps every line's share. The detector law, clamped to
    [v_in_min, v_in_max], follows on each of the three voltages.
    """
    cfg.attenuator.check_setting(att_db)
    if forward_ratios is None:
        forward_ratios = repeat(1.0)  # p * (1.0 * 1.0) is p exactly
    elif len(forward_ratios) != len(lines):
        raise ValueError(f"{len(forward_ratios)} forward ratios for {len(lines)} lines")
    f_max = cfg._stub_band_hz
    gain_db = cfg.amplifier.gain_db
    coupler, ripple = cfg.coupler, cfg._ripple
    # The tap's coupling is flat, so a tap chain's gain before ripple is one number.
    tap_g_db = cfg._tap_coupling_db - att_db + gain_db
    z0s = cfg.stub.z0s
    f_max1, f_max2 = cfg.stub._f_max_hz
    half_pi, cos = math.pi / 2.0, math.cos
    inf = math.inf
    total_w = oc_sq = sq1 = sq2 = 0.0
    for i, ((f_hz, p_w), r) in enumerate(zip(lines, forward_ratios)):
        # One chain per line; a NaN fails every comparison.
        if not (0.0 < f_hz <= f_max and 0.0 <= p_w < inf and 0.0 <= r < inf):
            _refuse_line(i, f_hz, p_w, r, cfg)
        g_db = (
            (tap_g_db if coupler is None else coupler_db_at(coupler, "coupling_db", f_hz) - att_db + gain_db)
            + (0.0 if ripple is None else table_value(ripple, f_hz))
        )
        p = p_w * 10.0 ** (g_db / 10.0)
        p *= r * r
        if not p < inf:  # also inf * 0.0, which is NaN
            raise ValueError(f"line {i} at {f_hz / 1e9:.3f} GHz: power {p_w!r} W overflows a float after the gain")
        total_w += p
        v_sq = 8.0 * p * z0s
        oc_sq += v_sq
        c = cos(half_pi * f_hz / f_max1)
        sq1 += v_sq * c * c
        c = cos(half_pi * f_hz / f_max2)
        sq2 += v_sq * c * c
    if total_w == inf:
        raise ValueError(f"the {len(lines)} lines' total power after the gain overflows a float")
    # Hard amplifier ceiling on total output power; line ratios are preserved.
    sat_w = cfg._sat_w
    if total_w > sat_w:
        scale = sat_w / total_w
        oc_sq, sq1, sq2 = oc_sq * scale, sq1 * scale, sq2 * scale
    v_oc, v1, v2 = math.sqrt(oc_sq), math.sqrt(sq1), math.sqrt(sq2)
    # The detector law; a root-sum-square voltage is never negative.
    v_min, v_max, a, b = cfg._det_law
    log10 = math.log10
    return (
        a * log10(v_min if v_oc < v_min else v_max if v_oc > v_max else v_oc) + b,
        a * log10(v_min if v1 < v_min else v_max if v1 > v_max else v1) + b,
        a * log10(v_min if v2 < v_min else v_max if v2 > v_max else v2) + b,
    )


def chain_voltages(
    sig: SignalDescriptor,
    cfg: ChainConfig,
    att_db: float,
) -> tuple[float, float, float]:
    """chain_voltages_lines over a signal descriptor's expanded lines."""
    return chain_voltages_lines(sig.lines, cfg, att_db)


def chain_readout_lines(
    lines: Sequence[tuple[float, float]],
    cfg: ChainConfig,
    att_db: float,
    t_s: float = 0.0,
    forward_ratios: Sequence[float] | None = None,
) -> TapCodes:
    """Digitized three-detector acquisition for pre-expanded lines.

    chain_voltages_lines quantized by the ADC: floor(v / lsb), clamped to
    [0, full_code].
    """
    v_oc, v1, v2 = chain_voltages_lines(lines, cfg, att_db, forward_ratios)
    lsb, full = cfg._adc_codes
    c_oc, c1, c2 = math.floor(v_oc / lsb), math.floor(v1 / lsb), math.floor(v2 / lsb)
    return TapCodes(
        t_s,
        0 if c_oc < 0 else full if c_oc > full else c_oc,
        0 if c1 < 0 else full if c1 > full else c1,
        0 if c2 < 0 else full if c2 > full else c2,
        att_db,
    )


def chain_codes_cw(
    freq_hz: np.ndarray, power_dbm: np.ndarray, att_db: np.ndarray, cfg: ChainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ADC codes (open end, tap 1, tap 2) of one CW line over a block of cells.

    The three arrays broadcast together, and every cell of their broadcast
    shape gives the codes of chain_readout_lines([(f, dbm_to_watts(p))],
    cfg, att). The chain looks up its coupling and ripple over the whole
    array of frequencies, and a cell above the amplifier ceiling drives the
    stub at the ceiling. A level may differ from the scalar chain's in its
    last bits, so a cell within 1e-9 of a code boundary is read by the
    scalar chain. Scalars are 0-d arrays, and give 0-d arrays of codes.

    Domain, which is Tone's, refused in this order: ValueError for a
    frequency that is not positive and finite, then for a power in dBm that
    is not finite, then for one whose watts overflow a float (dbm_to_watts);
    cfg.check_band's OutOfBandError, for a frequency above the stub band
    (naming the largest), then outside a coupler's band (naming the first in
    C order); ValueError for an att_db that is not an attenuator setting,
    and for the first cell, named, whose watts overflow a float after the
    gain.
    """
    f = np.asarray(freq_hz, dtype=float)
    p_dbm = np.asarray(power_dbm, dtype=float)
    att = np.asarray(att_db, dtype=float)
    bad = ~((f > 0.0) & (f < math.inf))
    if bad.any():
        raise ValueError(f"frequency {float(f[bad][0])!r} Hz is not positive and finite")
    bad = ~np.isfinite(p_dbm)
    if bad.any():
        raise ValueError(f"power {float(p_dbm[bad][0])!r} dBm is not finite")
    dbm_to_watts(float(p_dbm.max(initial=-math.inf)))  # refuses watts that overflow; they rise with dBm
    cfg.check_band(f)
    g_db = cfg.coupling_db_at(f) - att + cfg.amplifier.gain_db + cfg.ripple_db_at(f)
    for a in sorted(set(att.ravel().tolist())):
        cfg.attenuator.check_setting(a)
    cells = np.broadcast_arrays(f, p_dbm, att)
    with np.errstate(over="ignore", invalid="ignore"):
        # A tap chain without ripple reads alike at every frequency: p takes the cells' shape here.
        p = np.broadcast_to(10.0 ** (p_dbm / 10.0) * 1e-3 * 10.0 ** (g_db / 10.0), cells[0].shape)
    bad = ~(p < math.inf)  # also NaN: a power that underflows to 0 W times a gain that overflows
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        fb, pb, ab = (float(x[idx]) for x in cells)
        raise ValueError(
            f"cell at {fb / 1e9:.3f} GHz, {pb!r} dBm and att_db={ab!r}: its watts after the gain overflow a float"
        )
    v_sq = 8.0 * np.minimum(p, cfg._sat_w) * cfg.stub.z0s  # a cell is one line: the ceiling caps its watts
    det, adc = cfg.detector, cfg.adc
    # numpy's pow, log10 and cos may differ from the C library's by a few
    # units in the last place, and the ceiling from the scalar chain's scale
    # on its sums, which moves a level by far less than 1e-9 of a code.
    # Cells that close to a code boundary are read by the scalar chain.
    near = np.zeros(v_sq.shape, dtype=bool)
    codes = []
    ratios = [np.abs(np.cos(math.pi / 2.0 * f / t.f_max_hz)) for t in cfg.stub.taps]
    # The clamps are np.minimum(np.maximum(...)): np.clip's arithmetic
    # without its fixed cost per call.
    for r in (1.0, *ratios):  # the open end first; v_sq * 1.0 * 1.0 is v_sq exactly
        v = np.sqrt(v_sq * r * r)
        level = det.slope_a * np.log10(np.minimum(np.maximum(v, det.v_in_min), det.v_in_max)) + det.intercept_b
        level /= adc.lsb
        near |= np.abs(level - np.rint(level)) < 1e-9
        # An array even for 0-d cells, where numpy's ufuncs give scalars.
        codes.append(np.asarray(np.minimum(np.maximum(np.floor(level), 0), adc.full_code), dtype=int))
    if near.any():
        for idx in map(tuple, np.argwhere(near)):
            fc, pc, ac = (float(x[idx]) for x in cells)
            c = chain_readout_lines([(fc, dbm_to_watts(pc))], cfg, ac)
            codes[0][idx], codes[1][idx], codes[2][idx] = c.code_oc, c.code_l1, c.code_l2
    return codes[0], codes[1], codes[2]


def chain_readout(
    sig: SignalDescriptor,
    cfg: ChainConfig,
    att_db: float,
    t_s: float = 0.0,
) -> TapCodes:
    """Digitized three-detector acquisition for a signal descriptor."""
    return chain_readout_lines(sig.lines, cfg, att_db, t_s)


# ---------------- ChainConfig JSON ----------------


def chain_config_from_dict(d: dict) -> ChainConfig:
    """ChainConfig from its JSON form; a malformed entry is a ValueError starting with its path."""
    return from_json(ChainConfig, d, "chain")


def save_chain_config(cfg: ChainConfig, path: str) -> None:
    save(cfg, path)


def load_chain_config(path: str) -> ChainConfig:
    """ChainConfig from a JSON file; a malformed entry is a ValueError starting with its path."""
    return load(ChainConfig, path, "chain")


def chain_config_hash(cfg: ChainConfig) -> str:
    """Stable short hash of a chain's value, its JSON form (equal chains write equal JSON), for calibration headers."""
    blob = json.dumps(to_json(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
