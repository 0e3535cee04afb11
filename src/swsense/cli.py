"""Command line front end.

Subcommands cover the design-time calculations (pick-off sweep, node
placement, resolution), calibration table generation, one-shot estimation,
and closed-loop scenario simulation. A chain/controller configuration JSON
can be passed with --config or through the SWSENSE_CONFIG environment
variable; otherwise the bundled default is used. Artifacts land in the
--out directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .codec import from_json
from .controller import ControllerConfig, settle_cw
from .coupling import ResistiveTapParams, tap_sparams
from .engine import load_scenario, run, samples_to_csv, trace_to_csv
from .errors import SwsenseError
from .estimator import (
    CalibrationGrid,
    build_calibration,
    check_sweep,
    default_grid_for,
    estimate,
    place_nodes,
    resolution,
    save_calibration,
)
from .readout import ChainConfig, TapCodes
from .stub import tap_length


@dataclass(frozen=True)
class _Config:
    """A --config file: the chain and controller of one stage."""

    chain: ChainConfig = field(default_factory=ChainConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)


def _build(path: str | None) -> tuple[ChainConfig, ControllerConfig]:
    """(chain, controller) from a config file, $SWSENSE_CONFIG or the bundled default."""
    if path is None:
        path = os.environ.get("SWSENSE_CONFIG")
    if path is None:
        d = json.loads(resources.files("swsense").joinpath("data/default_config.json").read_text())
    else:
        with open(path) as fh:
            d = json.load(fh)
    c = from_json(_Config, d, "config", root=True)
    return c.chain, c.controller


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_sweep_sparams(args) -> int:
    cfg, _ = _build(args.config)
    if args.r_c is not None:
        if cfg.coupling_kind != "tap":
            raise ValueError("--r-c sets the tap resistance; this chain has no resistive tap")
        cfg = replace(cfg, tap=ResistiveTapParams(r_c=args.r_c, z0=cfg.tap.z0))
    band = default_grid_for(cfg)
    f_start = band.f_start_hz if args.f_start is None else args.f_start
    f_stop = band.f_stop_hz if args.f_stop is None else args.f_stop
    if not (math.isfinite(f_start) and math.isfinite(f_stop)) or args.points < 1:
        raise ValueError("sweep-sparams needs a finite --f-start and --f-stop and --points >= 1")
    freqs = np.linspace(f_start, f_stop, args.points)
    # Only the tap's match has a closed form.
    s11 = tap_sparams(cfg.tap)[0] if cfg.coupling_kind == "tap" else float("nan")
    # Every row is computed before the file is opened, so an out-of-band point leaves no file.
    rows = []
    for f in map(float, freqs):
        c, s21 = cfg.coupling_db_at(f), -cfg.through_loss_db_at(f)
        rows.append([repr(f), repr(s11), repr(s21), repr(c), repr(0.0)])
    path = _outpath(args, "sparams.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["freq_hz", "s11_db", "s21_db", "coupling_db", "s21_absent_db"])
        w.writerows(rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg, ctrl = _build(args.config)
    band = default_grid_for(cfg)
    grid = CalibrationGrid(
        f_start_hz=band.f_start_hz if args.f_start is None else args.f_start,
        f_stop_hz=band.f_stop_hz if args.f_stop is None else args.f_stop,
        f_step_hz=args.f_step,
        p_start_dbm=args.p_start,
        p_stop_dbm=args.p_stop,
        p_step_dbm=args.p_step,
    )
    cal = build_calibration(cfg, grid, ctrl)
    csv_path = _outpath(args, "calibration.csv")
    hdr_path = _outpath(args, "calibration.json")
    save_calibration(cal, csv_path, hdr_path)
    print(f"wrote {len(cal.freqs_hz) * len(cal.powers_dbm)} cells to {csv_path} (+{hdr_path})")
    return 0


def _cmd_resolution(args) -> int:
    cfg, _ = _build(args.config)
    f_max = cfg.stub.taps[0].f_max_hz
    if args.sweep:
        check_sweep("frequency", args.f_start, args.f_stop, args.f_step)
        freqs = np.arange(args.f_start, args.f_stop + args.f_step / 2, args.f_step)
        # Every row is computed before the file is opened, so a point outside (0, f_max) leaves no file.
        rows = []
        for f in map(float, freqs):
            r = resolution(f, f_max, cfg.detector, cfg.adc)
            rows.append([repr(f), repr(r / 1e9), repr(100.0 * r / f)])
        path = _outpath(args, "resolution.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["freq_hz", "resolution_ghz", "resolution_pct"])
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {path}")
        return 0
    r = resolution(args.freq, f_max, cfg.detector, cfg.adc)
    print(
        json.dumps(
            {
                "freq_hz": args.freq,
                "resolution_hz": r,
                "resolution_ghz": r / 1e9,
                "resolution_pct": 100.0 * r / args.freq,
            }
        )
    )
    return 0


def _cmd_place_nodes(args) -> int:
    cfg, _ = _build(args.config)
    f2, f_min = place_nodes(args.f_max1, args.max_fraction, cfg.detector, cfg.adc)
    out = {
        "f_max_1_hz": args.f_max1,
        "f_max_2_hz": f2,
        "f_min_hz": f_min,
        "length_1_m": tap_length(args.f_max1, cfg.stub.eps_eff),
        "length_2_m": tap_length(f2, cfg.stub.eps_eff),
    }
    print(json.dumps(out))
    return 0


def _cmd_estimate(args) -> int:
    cfg, ctrl = _build(args.config)
    given = (args.codes is not None, args.freq is not None, args.power is not None)
    if given not in ((True, False, False), (False, True, True)):
        print("estimate: give either --codes or both --freq and --power", file=sys.stderr)
        return 2
    cal = build_calibration(cfg, None, ctrl)
    if args.codes is not None:
        oc, l1, l2 = (int(x) for x in args.codes.split(","))
        codes = TapCodes(t_s=0.0, code_oc=oc, code_l1=l1, code_l2=l2, att_db=args.att)
    else:
        # The gain control settles from --att, as the controller's would on a steady tone.
        oc, l1, l2, att = settle_cw(args.freq, args.power, cfg, ctrl, args.att)
        codes = TapCodes(t_s=0.0, code_oc=int(oc), code_l1=int(l1), code_l2=int(l2), att_db=float(att))
    est = estimate(codes, cal, ctrl.switch_freq_hz)
    print(
        json.dumps(
            {
                "freq_hz": est.freq_hz,
                "power_dbm": est.power_dbm,
                "tap_used": est.tap_used,
                "confidence": est.confidence,
                # The setting the codes were read at: --att's for --codes, the settled one for --freq/--power.
                "att_db": codes.att_db,
            }
        )
    )
    return 0


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    trace = run(sc, collect_trace=not args.no_trace)
    if not args.no_trace:
        trace_to_csv(trace, _outpath(args, "trace.csv"))
    for k in range(len(sc.stages)):
        samples_to_csv(trace, k, _outpath(args, f"samples_stage{k}.csv"))
    metrics = trace.metrics.to_dict()
    with open(_outpath(args, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="swsense", description=__doc__)
    p.add_argument("--config", help="chain/controller config JSON (default: $SWSENSE_CONFIG or bundled)")
    p.add_argument("--out", default=".", help="directory for written artifacts")
    p.add_argument("--seed", type=int, help="override scenario seed (simulate)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep-sparams", help="pick-off network S-parameters versus frequency")
    sp.add_argument("--f-start", type=float, help="default: low edge of the chain's band")
    sp.add_argument("--f-stop", type=float, help="default: high edge of the chain's band")
    sp.add_argument("--points", type=int, default=151)
    sp.add_argument("--r-c", type=float, help="override tap resistance, ohms")
    sp.set_defaults(func=_cmd_sweep_sparams)

    cp = sub.add_parser("calibrate", help="build and store a calibration table")
    cp.add_argument("--f-start", type=float, help="default: low edge of the chain's band")
    cp.add_argument("--f-stop", type=float, help="default: high edge of the chain's band")
    cp.add_argument("--f-step", type=float, default=0.1e9)
    cp.add_argument("--p-start", type=float, default=-20.0)
    cp.add_argument("--p-stop", type=float, default=20.0)
    cp.add_argument("--p-step", type=float, default=1.0)
    cp.set_defaults(func=_cmd_calibrate)

    rp = sub.add_parser("resolution", help="frequency resolution at a given input frequency")
    rp.add_argument("--freq", type=float, default=8e9)
    rp.add_argument("--sweep", action="store_true")
    rp.add_argument("--f-start", type=float, default=1e9)
    rp.add_argument("--f-stop", type=float, default=15e9)
    rp.add_argument("--f-step", type=float, default=0.1e9)
    rp.set_defaults(func=_cmd_resolution)

    pp = sub.add_parser("place-nodes", help="second tap and low edge from a worst-case resolution fraction")
    pp.add_argument("--f-max1", type=float, default=16e9)
    pp.add_argument("--max-fraction", type=float, default=0.0025)
    pp.set_defaults(func=_cmd_place_nodes)

    ep = sub.add_parser("estimate", help="one-shot frequency/power estimate")
    ep.add_argument("--codes", help="OC,L1,L2 ADC codes")
    ep.add_argument("--att", type=float, default=0.0, help="attenuator setting in dB (--freq/--power: where the AGC starts)")
    ep.add_argument("--freq", type=float, help="synthesize codes for this input frequency")
    ep.add_argument("--power", type=float, help="synthesize codes for this input power (dBm)")
    ep.set_defaults(func=_cmd_estimate)

    si = sub.add_parser("simulate", help="run a closed-loop scenario")
    si.add_argument("scenario", help="scenario JSON path")
    si.add_argument("--no-trace", action="store_true", help="skip the dt-grid trace (faster)")
    si.set_defaults(func=_cmd_simulate)

    return p


_PARSER = _parser()


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; argv is a list of strings, or None for sys.argv[1:].

    Returns 0 on success, 1 for a SwsenseError (a domain error) and 2 for an
    OSError or ValueError (malformed input); argparse errors raise
    SystemExit(2). The parser is built once at import, and every call parses
    into a fresh namespace, so main may be called repeatedly in one process.
    """
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except SwsenseError as exc:
        print(f"swsense: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"swsense: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
