"""The narrative demos run to completion and print exactly their golden output.

Each demo's stdout is compared byte for byte with ``tests/golden/demos/<name>.txt``,
captured from the demos before the market LP was assembled in one pass over
the branches. Demo output is deterministic: seeds are fixed and no timing is
printed. Each demo runs with RuntimeWarnings as errors and must print nothing
on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / demo).with_suffix(".txt").read_bytes()
