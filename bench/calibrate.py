"""Machine-speed calibration, run in a process of its own.

On a shared host the machine's speed drifts by tens of percent within
minutes, and Python-level work slows more than dense BLAS does. The
benchmark scales its end-to-end times by ``NOMINAL_S[kind] / burst time``,
where a burst is a fixed kernel that does not touch fdilab, matched to the
work that dominates the workload: ``mixed`` (small numpy calls, dict work
and small factorizations) or ``dense`` (BLAS and LAPACK on a matrix that
outgrows the L2 cache).

The bursts run in this worker process, never in the process that runs
fdilab, so the heap, garbage and cache state fdilab leaves behind cannot
change their time. ``Calibrator`` starts the worker and asks it for one
burst at a time; the worker reads a kind per line on stdin and answers
with the burst's seconds on stdout.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

# Each kernel's time at nominal machine speed, in seconds.
NOMINAL_S = {"mixed": 0.024, "dense": 0.022}
REPLY_TIMEOUT_S = 60


def burst(kind: str) -> float:
    """Seconds taken by one run of the fixed kernel ``kind``."""
    rng = np.random.default_rng(12345)
    if kind == "dense":
        dense = rng.standard_normal((400, 300))
        start = time.perf_counter()
        for i in range(10):
            g = dense.T @ dense + i * np.eye(300)
            scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), dense.T[:, :8])
        return time.perf_counter() - start
    small = rng.standard_normal((12, 6))
    dense = rng.standard_normal((160, 80))
    table = {}
    start = time.perf_counter()
    for i in range(400):
        z = small @ rng.standard_normal(6)
        x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(small.T @ small), small.T @ z)
        table[i % 32] = [float(v) for v in x]
    for i in range(40):
        g = dense.T @ dense + i * np.eye(80)
        scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), dense.T[:, :8])
    return time.perf_counter() - start


class Calibrator:
    """The worker process, as a context manager; ``burst(kind)`` blocks until it answers."""

    def __init__(self, kind: str):
        self.kind = kind
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def burst(self) -> float:
        self._proc.stdin.write(self.kind + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration worker ended with code {self._proc.wait(REPLY_TIMEOUT_S)}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> None:
    for line in sys.stdin:
        print(repr(burst(line.strip())), flush=True)


if __name__ == "__main__":
    main()
