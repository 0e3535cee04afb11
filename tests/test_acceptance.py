"""Acceptance gate: the nine package-level criteria, one verdict line each.

Each test prints (and records for the terminal summary) a single line
"ACCEPTANCE <n>: PASS|FAIL - <measured numbers>" with the pinned
tolerances it was judged against, then asserts.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from swsense.controller import ControllerConfig, agc_policy, settle_cw
from swsense.core import SignalDescriptor, Tone
from swsense.coupling import tap_coupling, tap_sparams, ResistiveTapParams
from swsense.engine import (
    Scenario,
    StageSpec,
    detect_limit_cycle,
    get_calibration,
    measure_response_time,
    run,
    trace_to_csv,
)
from swsense.errors import BijectivityError
from swsense.estimator import estimate, estimate_frequency, place_nodes, resolution
from swsense.filters import (
    MIN_DEPTH_DB,
    FilterState,
    NotchModel,
    effective_depth_db,
    notch_s21_db,
    stopband_gamma,
)
from swsense.readout import AdcParams, DetectorParams, TapCodes, chain_readout
from swsense.stub import standing_ratio, tap_rms_voltages, StubParams

RESULTS = []


def _verdict(n: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return line


def test_01_tap_sparams_anchor():
    p = ResistiveTapParams(r_c=210.0, z0=50.0)
    c = tap_coupling(p)
    s11, s21 = tap_sparams(p)
    ok = abs(c - -15.0) <= 0.15 and abs(s11 - -21.0) <= 0.15 and abs(s21 - -0.8) <= 0.15
    _verdict(
        1,
        ok,
        f"R_C 210: coupling {c:.3f}, match {s11:.3f}, through {s21:.3f} dB "
        f"(each within 0.15 dB of -15/-21/-0.8)",
    )
    assert ok


def test_02_resolution_and_tap_placement():
    det, adc = DetectorParams(), AdcParams()
    pct = 100.0 * resolution(8e9, 16e9, det, adc) / 8e9
    f2, f_min = place_nodes(16e9, 0.0025, det, adc)
    ok = (
        abs(pct - 0.25) <= 0.01
        and abs(f2 - 8.0e9) <= 50e6
        and 3.6e9 <= f_min <= 4.2e9
    )
    _verdict(
        2,
        ok,
        f"resolution(8 GHz) {pct:.4f}% (0.25 +/- 0.01); second tap {f2 / 1e9:.4f} GHz "
        f"(8.0 +/- 0.05); low edge {f_min / 1e9:.4f} GHz (within 3.6..4.2)",
    )
    assert ok


def test_03_round_trip_estimation(chain, controller, calibration):
    freqs = np.arange(1.2e9, 15e9 + 1e6, 0.2e9)
    powers = np.arange(-18.0, 18.1, 2.0)
    # Each frequency steps up through the powers, and its gain control
    # settles from where the previous power left it: one call per power.
    settled, att = [], np.zeros(len(freqs))
    for p in powers:
        oc, l1, l2, att = settle_cw(freqs, p, chain, controller, att)
        settled.append((oc, l1, l2, att))
    n = 0
    bad_f, bad_tap = [], []
    p_errs = []
    for i, f in enumerate(freqs):
        f = float(f)
        f_max = 5e9 if f < 5e9 else 16e9
        budget = resolution(f, f_max, chain.detector, chain.adc) + 0.2e9
        want_tap = "l2" if f < 5e9 else "l1"
        for p, (oc, l1, l2, att) in zip(powers, settled):
            p = float(p)
            codes = TapCodes(0.0, int(oc[i]), int(l1[i]), int(l2[i]), float(att[i]))
            est = estimate(codes, calibration)
            n += 1
            if abs(est.freq_hz - f) > budget:
                bad_f.append((f, p, est.freq_hz))
            if est.tap_used != want_tap:
                bad_tap.append((f, p, est.tap_used))
            p_errs.append(abs(est.power_dbm - p))
    p_errs = np.array(p_errs)
    p_ok_share = float((p_errs <= 1.0).mean())
    ok = not bad_f and not bad_tap and p_ok_share >= 0.99
    _verdict(
        3,
        ok,
        f"{n} grid points: freq within resolution+0.2 GHz at {n - len(bad_f)}/{n}, "
        f"power within 1 dB at {100 * p_ok_share:.2f}% (need 99%), "
        f"tap choice correct at {n - len(bad_tap)}/{n} (need all)",
    )
    assert ok, (bad_f[:3], bad_tap[:3], p_ok_share)


def test_04_modulated_interferer_immunity(chain, calibration):
    centers = np.arange(1.2e9, 14e9 + 1.0, 12e6)
    rel_errs = []
    for fc in centers:
        fc = float(fc)
        sig = SignalDescriptor((Tone(freq_hz=fc, power_dbm=0.0, occupied_bw_hz=12e6),))
        codes = chain_readout(sig, chain, 0.0)
        f_est, _, _ = estimate_frequency(codes, calibration)
        rel_errs.append(abs(f_est - fc) / fc)
    rel_errs = np.array(rel_errs)
    worst = float(rel_errs.max())
    share2 = float((rel_errs < 0.02).mean())
    ok = worst < 0.05 and share2 >= 0.80
    _verdict(
        4,
        ok,
        f"{len(centers)} comb centers (12 MHz occupied): worst error "
        f"{100 * worst:.3f}% (need < 5%), under 2% at {100 * share2:.1f}% of centers (need 80%)",
    )
    assert ok


def test_05_response_time_statistics(chain, controller, calibration):
    stage = StageSpec(notch=NotchModel(reflective=False))
    engage, release = [], []
    for seed in range(1000):
        sc = Scenario(
            duration_s=6e-6,
            sources=(Tone(freq_hz=8e9, power_dbm=2.0, t_on_s=1e-6, t_off_s=4.1e-6),),
            stages=(stage,),
            seed=seed,
        )
        trace = run(sc, collect_trace=False, calibrations=[calibration])
        engage.append(measure_response_time(trace, "rise"))
        release.append(measure_response_time(trace, "fall"))
    engage = np.array(engage)
    release = np.array(release)
    eps = 1e-12
    ok = (
        450e-9 <= engage.mean() <= 550e-9
        and 450e-9 <= release.mean() <= 550e-9
        and engage.min() >= 400e-9 - eps
        and engage.max() <= 600e-9 + eps
        and release.min() >= 400e-9 - eps
        and release.max() <= 600e-9 + eps
        and abs(engage.mean() - release.mean()) <= 15e-9
    )
    _verdict(
        5,
        ok,
        f"1000 pulses: engage mean {engage.mean() * 1e9:.1f} ns "
        f"(450..550), support [{engage.min() * 1e9:.1f}, {engage.max() * 1e9:.1f}] ns "
        f"(400..600); release mean {release.mean() * 1e9:.1f} ns, "
        f"support [{release.min() * 1e9:.1f}, {release.max() * 1e9:.1f}] ns",
    )
    assert ok


def test_06_programmable_threshold(chain, calibration):
    notch = NotchModel(reflective=False)
    failures = []
    for thr in (-20.0, -10.0, 0.0, 10.0, 20.0):
        ctrl = ControllerConfig(threshold_dbm=thr)
        for off in (-4.0, -2.0, -1.0, 1.0, 2.0, 4.0):
            p = thr + off
            dur = 6e-6 + max(0.0, p - 2.0) * 1e-6
            sc = Scenario(
                duration_s=dur,
                sources=(Tone(freq_hz=7e9, power_dbm=p),),
                stages=(StageSpec(controller=ctrl, notch=notch),),
                seed=5,
            )
            trace = run(sc, collect_trace=False, calibrations=[calibration])
            engaged = trace.filter_hist[0][-1][1].engaged
            if engaged != (off > 0):
                failures.append((thr, p, engaged))

    # depth compression: suppression cannot grow with input power past the knee
    m = NotchModel()
    depths = [effective_depth_db(m, p) for p in np.arange(m.power_knee_dbm, 40.1, 2.5)]
    monotone = all(b <= a for a, b in zip(depths, depths[1:])) and depths[-1] < depths[0]

    def end_to_end(p):
        sc = Scenario(
            duration_s=8e-6 + max(0.0, p - 2.0) * 1e-6,
            sources=(Tone(freq_hz=7e9, power_dbm=p),),
            stages=(StageSpec(notch=notch),),
            seed=5,
        )
        return run(sc, collect_trace=False, calibrations=[calibration]).metrics.suppression_db[0]

    s12, s18 = end_to_end(12.0), end_to_end(18.0)
    ok = not failures and monotone and s12 > s18 > 0.0
    _verdict(
        6,
        ok,
        f"engage iff input above threshold at {5 * 6 - len(failures)}/30 cells "
        f"(thresholds -20..+20 dBm, offsets 1..4 dB); "
        f"compressed suppression {s12:.1f} dB at +12 dBm vs {s18:.1f} dB at +18 dBm",
    )
    assert ok, failures[:5]


def test_07_reflection_stability(calibration):
    from swsense.readout import ChainConfig

    delay = 1.0 / (4.0 * 6e9)  # round trip of half a cycle at 6 GHz
    tap_sc = Scenario(
        duration_s=1.5e-5,
        sources=(Tone(freq_hz=6e9, power_dbm=3.0),),
        stages=(StageSpec(notch=NotchModel(reflective=True), electrical_delay_s=delay),),
        seed=3,
    )
    tap_trace = run(tap_sc, collect_trace=False, calibrations=[calibration])
    cycling, period = detect_limit_cycle(tap_trace)

    coupler_chain = ChainConfig(coupling_kind="coupler")
    coupler_sc = Scenario(
        duration_s=1.5e-5,
        sources=(Tone(freq_hz=6e9, power_dbm=10.0),),
        stages=(
            StageSpec(
                chain=coupler_chain,
                notch=NotchModel(reflective=True),
                electrical_delay_s=delay,
            ),
        ),
        seed=3,
    )
    coupler_trace = run(coupler_sc, collect_trace=False)
    c_cycling, _ = detect_limit_cycle(coupler_trace)
    c_engaged = coupler_trace.filter_hist[0][-1][1].engaged

    period_ok = cycling and abs(period - 1000e-9) <= 0.2 * 1000e-9
    ok = period_ok and not c_cycling and c_engaged
    _verdict(
        7,
        ok,
        f"tap pick-off with reflective notch cycles at "
        f"{(period or math.nan) * 1e9:.0f} ns (need 1000 ns +/- 20%); "
        f"6 dB directivity coupler holds lock without cycling: {not c_cycling}",
    )
    assert ok


def test_08_two_stage_cascade(calibration):
    notch = NotchModel.yig(bw_3db_hz=500e6, reflective=False, tuning_time_s=2e-7)
    ctrl = ControllerConfig(threshold_dbm=-16.0)
    stage = StageSpec(controller=ctrl, notch=notch)
    failures = []
    for strong_at_6 in (True, False):
        for strong_first in (True, False):
            p6 = 2.0 if strong_at_6 else -14.0
            p12 = -14.0 if strong_at_6 else 2.0
            f_strong = 6e9 if strong_at_6 else 12e9
            strong_on, weak_on = (1e-6, 3e-6) if strong_first else (3e-6, 1e-6)
            t6 = strong_on if strong_at_6 else weak_on
            t12 = weak_on if strong_at_6 else strong_on
            sc = Scenario(
                duration_s=1.2e-5,
                sources=(
                    Tone(freq_hz=6e9, power_dbm=p6, t_on_s=t6),
                    Tone(freq_hz=12e9, power_dbm=p12, t_on_s=t12),
                ),
                stages=(stage, stage),
                seed=11,
            )
            trace = run(sc, collect_trace=False, calibrations=[calibration, calibration])
            m = trace.metrics
            fc0 = trace.filter_hist[0][-1][1].f_center_hz
            locked = trace.filter_hist[0][-1][1].engaged
            if not (
                m.final_output_dbm[0] < -16.0
                and m.final_output_dbm[1] < -16.0
                and locked
                and abs(fc0 - f_strong) <= 250e6
            ):
                failures.append(
                    (strong_at_6, strong_first, m.final_output_dbm, fc0)
                )
    ok = not failures
    _verdict(
        8,
        ok,
        f"{4 - len(failures)}/4 power/arrival orderings: both tones below -16 dBm "
        f"at steady state with the first stage locked to the stronger tone",
    )
    assert ok, failures


def test_09_property_suites(chain, controller):
    checks = {}

    # ratio monotone and invertible on (0, f_max]
    fs = np.linspace(1e6, 16e9, 4001)
    ratios = [standing_ratio(float(f), 16e9) for f in fs]
    mono = all(a > b for a, b in zip(ratios, ratios[1:]))
    rt = all(
        abs(2 * 16e9 / math.pi * math.acos(r) - f) <= max(1.0, 1e-9 * f)
        for f, r in zip(fs, ratios)
    )
    try:
        standing_ratio(16.0001e9, 16e9)
        guarded = False
    except BijectivityError:
        try:
            standing_ratio(0.0, 16e9)
            guarded = False
        except BijectivityError:
            guarded = True
    checks["ratio bijective"] = mono and rt and guarded

    # uncorrelated power addition is homogeneous of degree 1/2
    stub = StubParams()
    lines = [(6e9, 1e-3), (9.3e9, 2e-4), (2.2e9, 5e-5)]
    v0, taps0 = tap_rms_voltages(lines, stub)
    homo = True
    for a in (0.25, 2.0, 16.0):
        va, tapsa = tap_rms_voltages([(f, a * w) for f, w in lines], stub)
        homo &= abs(va - math.sqrt(a) * v0) <= 1e-12 * va
        homo &= all(abs(x - math.sqrt(a) * y) <= 1e-12 * max(x, 1e-30) for x, y in zip(tapsa, taps0))
    checks["power-sum homogeneity"] = homo

    # gain control reaches a fixed point for every constant drive level
    code_oc, _, _, att = settle_cw(8e9, np.arange(-20.0, 21.0), chain, controller)
    agc = np.array_equal(agc_policy(code_oc, att, controller, chain), att)
    agc &= bool(np.all((code_oc <= controller.agc_high_code) | (att >= chain.attenuator.max_db)))
    checks["AGC fixed point"] = agc

    # bit-identical artifacts for a fixed seed
    sc = Scenario(
        duration_s=4e-6,
        sources=(Tone(freq_hz=7e9, power_dbm=1.0),),
        stages=(StageSpec(),),
        seed=123,
    )
    ta, tb = run(sc), run(sc)
    import io
    import tempfile, os

    same = ta.samples == tb.samples and ta.metrics.to_dict() == tb.metrics.to_dict()
    with tempfile.TemporaryDirectory() as d:
        pa, pb = os.path.join(d, "a.csv"), os.path.join(d, "b.csv")
        trace_to_csv(ta, pa)
        trace_to_csv(tb, pb)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            same &= fa.read() == fb.read()
    checks["determinism"] = same

    # reflective notch conserves |s21|^2 + |gamma|^2
    m = NotchModel(reflective=True)
    st = FilterState(engaged=True, f_center_hz=8e9)
    ident = True
    for df in np.linspace(-400e6, 400e6, 41):
        for p in (-20.0, 0.0, 25.0, 40.0):
            s21 = 10.0 ** (notch_s21_db(m, st, 8e9 + float(df), p, 1e-6) / 20.0)
            g = stopband_gamma(m, st, 8e9 + float(df), p, 1e-6)
            ident &= abs(s21 * s21 + g * g - 1.0) <= 1e-12
    checks["reflection energy identity"] = ident

    ok = all(checks.values())
    detail = ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
    _verdict(9, ok, detail)
    assert ok, checks
