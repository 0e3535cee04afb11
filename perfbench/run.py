"""swsense benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload estimate_sweep --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. With --trace 0 the last line of standard output carries the
end-to-end metrics, measured with no wrapper installed. With --trace 1 it
carries the per-layer metrics of a separate traced pass. The line before it
is a JSON object with the run's metadata: output digest, failures, git SHA,
interpreter and library versions, and CPU count.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned for this process before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import swsense from this checkout's src/, or explain why that is impossible."""
    if not (SRC / "swsense" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no swsense package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import swsense

    if Path(swsense.__file__).resolve().parent != (SRC / "swsense").resolve():
        raise SystemExit(f"perfbench: imported swsense from {swsense.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import bench

    result, info = bench.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), str(ROOT / ".perfbench")
    )
    bench.print_result(result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
