"""The three closed-loop workloads of the swsense benchmark.

Each workload has a cold set-up (configs, scenarios, calibration tables), a
batch of operations generated from the seed alone, one timed operation, and a
check of that operation's output. The check is never timed. Every swsense
function an operation calls is bound at module level here, so the tracer can
rebind it and attribute the call to the layer it enters.

- estimate_sweep: CW points inverted by the estimator, plus modulated combs.
  It never calls the engine.
- pulse_montecarlo: the acceptance-5 pulse through run(), untraced, over one
  shared calibration. The same code triples recur from run to run.
- simulate_cli: the command line `simulate` over the four bundled scenarios,
  with and without a trace. The only workload on the coupler chain.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter_ns

import numpy as np

from swsense.cli import main as cli_main
from swsense.controller import ControllerConfig, agc_policy
from swsense.core import SignalDescriptor, Tone
from swsense.engine import (
    Scenario,
    StageSpec,
    clear_calibration_cache,
    get_calibration,
    load_scenario,
    measure_response_time,
    run,
)
from swsense.estimator import build_calibration, estimate, estimate_frequency, resolution
from swsense.filters import NotchModel
from swsense.readout import chain_config_from_dict, chain_readout

SEED_STRIDE = 1_000_000  # scenario seeds of one benchmark seed: seed * SEED_STRIDE + i


@dataclass
class Setup:
    """What a cold set-up produced, with the calibration work it did."""

    state: dict
    build_s: float  # host seconds spent building calibration tables
    cal_cells: int  # grid cells of the tables built


@dataclass
class Outcome:
    """The checked result of one operation."""

    ok: bool
    record: object  # JSON-able seeded output, hashed into the run digest
    adc_samples: int  # simulated ADC acquisitions the operation made
    trace_records: int = 0
    # (true freq Hz, true power dBm or None, estimated freq Hz, estimated power dBm or None)
    truths: list = field(default_factory=list)
    note: str = ""


def default_config():
    """The bundled chain and controller configuration."""
    text = resources.files("swsense").joinpath("data/default_config.json").read_text()
    d = json.loads(text)
    return chain_config_from_dict(d.get("chain", {})), ControllerConfig(**d.get("controller", {}))


def _timed_calibration(cfg, ctrl, tables: dict) -> tuple:
    t0 = perf_counter_ns()
    cal = get_calibration(cfg, ctrl)
    dt = perf_counter_ns() - t0
    fresh = id(cal) not in tables
    tables[id(cal)] = cal
    return cal, dt if fresh else 0


def _error_outcome(exc: Exception) -> Outcome:
    return Outcome(False, ["error", type(exc).__name__, str(exc)], 0, note=f"{type(exc).__name__}: {exc}")


def _latency_ok(x: float | None) -> bool:
    """An engage or release latency inside the 400-600 ns acceptance window."""
    return x is not None and 400e-9 - 1e-12 <= x <= 600e-9 + 1e-12


def sample_truths(samples, sources, sample_period: float) -> list:
    """(truth, estimate) pairs for samples converted while one CW source was on.

    A sample delivered at t was converted at t - sample_period; at that
    instant the stage-0 input is known exactly when a single CW source is
    active.
    """
    out = []
    for s in samples:
        f_est = float(s["f_est_hz"])
        if math.isnan(f_est):
            continue
        tau = float(s["t_s"]) - sample_period
        active = [src for src in sources if src.active(tau)]
        if len(active) == 1 and active[0].n_subtones == 1:
            out.append((active[0].freq_hz, active[0].power_dbm, f_est, float(s["p_est_dbm"])))
    return out


class EstimateSweep:
    """Seeded off-grid CW points settled by the AGC, then inverted; some combs."""

    name = "estimate_sweep"
    batch_size = 3000  # enough points that the p95 errors move little from seed to seed
    comb_share = 0.2

    def setup(self) -> Setup:
        cfg, ctrl = default_config()
        t0 = perf_counter_ns()
        cal = build_calibration(cfg, None, ctrl)
        build_ns = perf_counter_ns() - t0
        max_iter = int(round(cfg.attenuator.max_db / cfg.attenuator.step_db)) + 2
        state = {"cfg": cfg, "ctrl": ctrl, "cal": cal, "max_iter": max_iter}
        return Setup(state, build_ns / 1e9, int(cal.code_oc.size))

    def batch(self, seed: int, n: int) -> list:
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(n):
            if rng.random() < self.comb_share:
                items.append(("comb", float(rng.uniform(1.2e9, 14e9)), 0.0))
            else:
                items.append(("cw", float(rng.uniform(1.2e9, 15e9)), float(rng.uniform(-18.0, 18.0))))
        return items

    def begin_round(self, st: dict) -> dict:
        # The attenuator carries over from one point to the next, as in a sweep.
        return dict(st, att=0.0)

    def op(self, ctx: dict, item):
        kind, f, p = item
        cfg, cal = ctx["cfg"], ctx["cal"]
        if kind == "comb":
            sig = SignalDescriptor((Tone(freq_hz=f, power_dbm=0.0, occupied_bw_hz=12e6),))
            codes = chain_readout(sig, cfg, 0.0)
            return codes, estimate_frequency(codes, cal), 1
        sig = SignalDescriptor((Tone(freq_hz=f, power_dbm=p),))
        att = ctx["att"]
        codes = chain_readout(sig, cfg, att)
        reads = 1
        for _ in range(ctx["max_iter"]):
            nxt = agc_policy(codes.code_oc, att, ctx["ctrl"], cfg)
            if nxt == att:
                break
            att = nxt
            codes = chain_readout(sig, cfg, att)
            reads += 1
        ctx["att"] = att
        return codes, estimate(codes, cal), reads

    def check(self, st: dict, item, out) -> Outcome:
        if isinstance(out, Exception):
            return _error_outcome(out)
        kind, f, p = item
        codes, est, reads = out
        triple = [codes.code_oc, codes.code_l1, codes.code_l2, codes.att_db]
        if kind == "comb":
            f_est, tap, conf = est
            rel = abs(f_est - f) / f
            return Outcome(
                rel < 0.05, [triple, f_est, tap, conf], reads,
                truths=[(f, None, f_est, None)],
                note=f"comb {f / 1e9:.4f} GHz read as {f_est / 1e9:.4f} GHz",
            )
        cfg = st["cfg"]
        f_max = cfg.stub.taps[1].f_max_hz if f < cfg.stub.taps[1].f_max_hz else cfg.stub.taps[0].f_max_hz
        budget = resolution(f, f_max, cfg.detector, cfg.adc) + 0.2e9
        return Outcome(
            abs(est.freq_hz - f) <= budget,
            [triple, est.freq_hz, est.power_dbm, est.tap_used, est.confidence],
            reads,
            truths=[(f, p, est.freq_hz, est.power_dbm)],
            note=f"{f / 1e9:.4f} GHz at {p:.2f} dBm read as {est.freq_hz / 1e9:.4f} GHz via {est.tap_used}",
        )


class PulseMonteCarlo:
    """The acceptance-5 pulse, one untraced run per scenario seed."""

    name = "pulse_montecarlo"
    batch_size = 400

    def setup(self) -> Setup:
        clear_calibration_cache()
        cfg, ctrl = default_config()
        tables: dict = {}
        cal, build_ns = _timed_calibration(cfg, ctrl, tables)
        stage = StageSpec(chain=cfg, controller=ctrl, notch=NotchModel(reflective=False))
        return Setup({"cal": cal, "stage": stage}, build_ns / 1e9, int(cal.code_oc.size))

    def batch(self, seed: int, n: int) -> list:
        return [seed * SEED_STRIDE + i for i in range(n)]

    def begin_round(self, st: dict) -> dict:
        return st

    def _scenario(self, st: dict, scenario_seed: int) -> Scenario:
        return Scenario(
            duration_s=6e-6,
            sources=(Tone(freq_hz=8e9, power_dbm=2.0, t_on_s=1e-6, t_off_s=4.1e-6),),
            stages=(st["stage"],),
            seed=scenario_seed,
        )

    def op(self, ctx: dict, scenario_seed: int):
        return run(self._scenario(ctx, scenario_seed), collect_trace=False, calibrations=[ctx["cal"]])

    def check(self, st: dict, scenario_seed: int, trace) -> Outcome:
        if isinstance(trace, Exception):
            return _error_outcome(trace)
        try:
            engage = measure_response_time(trace, "rise")
            release = measure_response_time(trace, "fall")
        except ValueError as exc:
            return _error_outcome(exc)
        ok = _latency_ok(engage) and _latency_ok(release)
        period = trace.scenario.stages[0].chain.adc.sample_period
        return Outcome(
            ok,
            [trace.samples, trace.metrics.to_dict()],
            len(trace.samples[0]),
            truths=sample_truths(trace.samples[0], trace.scenario.sources, period),
            note=f"seed {scenario_seed}: engage {engage * 1e9:.1f} ns, release {release * 1e9:.1f} ns",
        )


def _period_ok(m: dict) -> bool:
    return m["limit_cycle"] and abs(m["limit_cycle_period_s"] - 1000e-9) <= 0.2 * 1000e-9


def _latencies_ok(m: dict) -> bool:
    return _latency_ok(m["response_time_engage_s"]) and _latency_ok(m["response_time_release_s"])


class SimulateCli:
    """`swsense simulate` in process over the bundled scenarios, traced and untraced."""

    name = "simulate_cli"
    batch_size = 48

    # The documented outcome of each bundled scenario (metrics dict, last stage-0 mode).
    OUTCOMES = {
        "cascade_6_12": lambda m, mode: all(x < -16.0 for x in m["final_output_dbm"]),
        "limit_cycle_coupler": lambda m, mode: not m["limit_cycle"] and mode == "engaged",
        "limit_cycle_tap": lambda m, mode: _period_ok(m),
        "pulse_response": lambda m, mode: _latencies_ok(m),
    }

    def __init__(self, work_dir: str):
        self.out_dir = os.path.join(work_dir, "simulate_cli")

    def setup(self) -> Setup:
        clear_calibration_cache()
        folder = resources.files("swsense").joinpath("data/scenarios")
        paths = sorted(str(p) for p in folder.iterdir() if p.name.endswith(".json"))
        scenarios = [load_scenario(p) for p in paths]
        tables: dict = {}
        build_ns = 0
        for sc in scenarios:
            for st in sc.stages:
                build_ns += _timed_calibration(st.chain, st.controller, tables)[1]
        cells = sum(int(t.code_oc.size) for t in tables.values())
        names = [os.path.basename(p)[: -len(".json")] for p in paths]
        if sorted(names) != sorted(self.OUTCOMES):
            raise RuntimeError(f"bundled scenarios changed: {names}")
        return Setup({"paths": paths, "names": names, "scenarios": scenarios}, build_ns / 1e9, cells)

    def batch(self, seed: int, n: int) -> list:
        # Op i: scenario i mod 4; traced for the first four of every eight.
        return [(i % 4, (i // 4) % 2 == 0, seed * SEED_STRIDE + i) for i in range(n)]

    def kind(self, st: dict, item) -> tuple[str, bool]:
        """(scenario name, traced?) of an operation."""
        k, traced, _ = item
        return st["names"][k], traced

    def begin_round(self, st: dict) -> dict:
        os.makedirs(self.out_dir, exist_ok=True)
        return st

    def op(self, ctx: dict, item):
        k, traced, seed = item
        argv = ["--out", self.out_dir, "--seed", str(seed), "simulate"]
        argv += [] if traced else ["--no-trace"]
        argv.append(ctx["paths"][k])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
        return rc, buf.getvalue()

    def _read_csv(self, name: str) -> tuple[list[dict], str]:
        with open(os.path.join(self.out_dir, name), newline="") as fh:
            text = fh.read()
        return list(csv.DictReader(io.StringIO(text))), hashlib.sha256(text.encode()).hexdigest()

    def check(self, st: dict, item, out) -> Outcome:
        if isinstance(out, Exception):
            return _error_outcome(out)
        k, traced, seed = item
        rc, stdout = out
        name = st["names"][k]
        if rc != 0:
            return Outcome(False, ["exit", rc], 0, note=f"{name} seed {seed}: exit code {rc}")
        metrics = json.loads(stdout.strip().splitlines()[-1])
        sc = st["scenarios"][k]
        stage_rows, hashes = [], []
        for j in range(len(sc.stages)):
            rows, digest = self._read_csv(f"samples_stage{j}.csv")
            stage_rows.append(rows)
            hashes.append(digest)
        trace_records = 0
        if traced:
            rows, digest = self._read_csv("trace.csv")
            trace_records = len(rows)
            hashes.append(digest)
        mode = stage_rows[0][-1]["mode"] if stage_rows[0] else ""
        stage0 = sc.stages[0]
        # A reflective notch changes what the pick-off samples, so the source
        # is the truth only behind a non-reflective one.
        truths = [] if stage0.notch.reflective else sample_truths(
            stage_rows[0], sc.sources, stage0.chain.adc.sample_period
        )
        return Outcome(
            bool(self.OUTCOMES[name](metrics, mode)),
            [metrics, hashes],
            sum(len(rows) for rows in stage_rows),
            trace_records=trace_records,
            truths=truths,
            note=f"{name} seed {seed}: {json.dumps(metrics, sort_keys=True)[:200]}",
        )


def make(name: str, work_dir: str):
    if name == EstimateSweep.name:
        return EstimateSweep()
    if name == PulseMonteCarlo.name:
        return PulseMonteCarlo()
    if name == SimulateCli.name:
        return SimulateCli(work_dir)
    raise ValueError(f"unknown workload {name!r}")
