"""Print every benchmark metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed 0] [--seconds 10]

For each workload in BENCHMARK.json this runs run.py twice, one process
after the other: untraced for the end-to-end metrics, then traced for the
per-layer metrics. It prints one table per workload and the run metadata,
and exits non-zero if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"report: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed phase per run (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for w in spec["workloads"]:
        print(f"== {w['name']}: {w['why']}")
        for trace in (0, 1):
            info, result = _run(w["name"], args.seed, seconds, trace)
            ok &= result["correct"]
            print(f"   {'traced' if trace else 'untraced'}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_share={info['failed_share']:.4f} digest={info['digest'][:16]}")
            for f in info["failures"]:
                print(f"     failed: {f}")
            for name, m in result["metrics"].items():
                print(f"   {name:32s} {m['value']:>14.6g} {m['unit']}")
        meta = {k: info[k] for k in ("git_sha", "python", "numpy", "scipy", "nproc")}
    print("== metadata:", json.dumps(meta, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
