"""The byte-for-byte tests pass under an OpenBLAS kernel other than the default one.

OpenBLAS picks its kernel for the CPU it runs on, and each kernel sums in its
own order. Reports print values that are zero up to round-off, so their bytes
would follow the CPU if a zero kept the sign of its round-off. The check runs
the byte-for-byte test files in a new interpreter with
``OPENBLAS_CORETYPE=Prescott``, the SSE3 kernel that any x86-64 CPU can run.
The variable acts only on the process that reads it at start-up, and only on
an OpenBLAS built with ``DYNAMIC_ARCH``, as numpy's and scipy's wheels are.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BYTE_FOR_BYTE = ["test_golden.py", "test_demos.py", "test_acceptance.py", "test_scenario.py"]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="Prescott is an x86-64 OpenBLAS kernel"
)
def test_byte_for_byte_tests_pass_under_the_prescott_kernel():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Prescott")
    files = [str(ROOT / "tests" / name) for name in BYTE_FOR_BYTE]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
