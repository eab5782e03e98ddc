"""fdilab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy. See ``harness.run`` for
what one run does and ``workloads.py`` for the workloads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread keeps timings steady on a small shared machine.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description="fdilab benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fdilab" / "__init__.py").is_file() or not (ROOT / "cases" / "5bus").is_dir():
        print(f"error: {ROOT} has no fdilab sources (src/fdilab) or bundled case (cases/5bus)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)  # read when numpy loads OpenBLAS
    # The run, its set-up probes and its calibration worker share one CPU, so the
    # worker's bursts see the machine speed the measured operations see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(ROOT, ROOT / ".bench_out", args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
