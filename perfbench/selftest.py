"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload on a small batch with one set-up, untraced and then
traced twice, and checks that:
- every metric BENCHMARK.json names is emitted, with the unit it states;
- after a traced run every rebound call site holds the package's own
  object again, not a wrapper;
- the output digest, the exact counts and the `attempted` and `failed`
  counts repeat for the same seed;
- every round ran the speed probe, and its scale is a positive number;
- run.py refuses, with a non-zero exit and no result line, to run where
  the package source is missing.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import run

run._import_package()

import bench  # noqa: E402
import tracer  # noqa: E402

TINY_BATCH = {"estimate_sweep": 20, "pulse_montecarlo": 8, "simulate_cli": 8}
EXACT = (
    "readout.calls_per_cal_cell",
    "estimator.estimate_calls",
    "controller.estimates_per_sample",
    "engine.trace_records",
    "engine.cal_builds",
)


def _fail(msg: str) -> None:
    raise SystemExit(f"selftest: FAIL - {msg}")


def _check_metrics(result: dict, declared: list, what: str) -> None:
    if not result["correct"]:
        _fail(f"{what}: harness checks failed")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        _fail(f"{what}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, unit in want.items():
        v = got[name]
        if v["unit"] != unit or not isinstance(v["value"], (int, float)):
            _fail(f"{what}: {name} = {v}, want a number in {unit}")


def _check_sites_restored(what: str) -> None:
    for module, attr, _ in tracer.SITES:
        obj = getattr(importlib.import_module(module), attr)
        if hasattr(obj, "__wrapped__") or not obj.__module__.startswith("swsense"):
            _fail(f"{what}: {module}.{attr} is still {obj!r}")


def _check_refusal(work: str) -> None:
    bare = run.ROOT / work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        _fail(f"run.py without the package source exited {proc.returncode}: {proc.stdout[-200:]}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    missing = [w["name"] for w in spec["workloads"] if w["name"] not in TINY_BATCH]
    if missing:
        _fail(f"BENCHMARK.json workloads {missing} have no self-test")
    work = str(run.ROOT / ".perfbench" / "selftest")
    for name in TINY_BATCH:
        n = TINY_BATCH[name]
        plain, info = bench.run_workload(name, 5, 0.0, False, work, batch=n, setup_reps=1)
        _check_metrics(plain, spec["end_to_end"], f"{name} untraced")
        if plain["attempted"] != n or not all(k > 0 for k in info["round_scales"] + info["setup_scales"]):
            _fail(f"{name}: attempted {plain['attempted']} of a batch of {n}, "
                  f"scales {info['round_scales']} {info['setup_scales']}")
        traced = []
        for _ in range(2):
            result, tinfo = bench.run_workload(name, 5, 0.0, True, work, batch=n, setup_reps=1)
            _check_metrics(result, spec["per_layer"], f"{name} traced")
            _check_sites_restored(f"{name} traced")
            if tinfo["digest"] != info["digest"]:
                _fail(f"{name}: traced digest {tinfo['digest']} differs from untraced {info['digest']}")
            if (result["attempted"], result["failed"]) != (plain["attempted"], plain["failed"]):
                _fail(f"{name}: attempted/failed {result['attempted']}/{result['failed']} traced, "
                      f"{plain['attempted']}/{plain['failed']} untraced")
            traced.append(result["metrics"])
        for key in EXACT:
            if traced[0][key]["value"] != traced[1][key]["value"]:
                _fail(f"{name}: {key} changed between runs of one seed: "
                      f"{traced[0][key]['value']} then {traced[1][key]['value']}")
        print(f"selftest: {name} ok ({plain['attempted']} operations, {plain['failed']} failed, "
              f"digest {info['digest'][:12]})")
    _check_refusal(".perfbench/selftest")
    print("selftest: run.py refuses to run without the package source")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
