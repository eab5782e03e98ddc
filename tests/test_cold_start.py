"""Which scipy and numpy.random modules a fresh interpreter loads for each kind of work.

Parsing a case, building H and weights and synthesizing a stealth attack
need numpy alone, so neither they nor ``fdilab attack`` load scipy. The
first factorisation loads ``scipy.linalg`` and the first detection
threshold ``scipy.special``. Parsing and building H and weights load no
``numpy.random`` either, which numpy loads on first use; the Monte Carlo
does. Each check runs a new interpreter with a
``sitecustomize`` that writes the names in ``sys.modules`` to a file at exit.
(``-X importtime`` cannot stand in for it: it does not list ``scipy.special``.)
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CASES_5BUS

SRC = Path(__file__).resolve().parents[1] / "src"
CASE = ["--case", str(CASES_5BUS / "network.json"), "--meters", str(CASES_5BUS / "meters.json")]

MODEL_SCRIPT = f"""
import fdilab
from fdilab import caseio
net = caseio.parse_network({str(CASES_5BUS / "network.json")!r})
meters = caseio.parse_meters({str(CASES_5BUS / "meters.json")!r}, net)
H = fdilab.build_h_matrix(net, meters)
fdilab.WeightModel(meters.sigmas)
"""
API_SCRIPT = MODEL_SCRIPT + """
fdilab.random_constrained_attack(H, [0, 1, 2], seed=1)
fdilab.targeted_attack(H, {0: 0.1})
"""


RECORDER = """
import atexit, os, sys

def _record():
    with open(os.environ["LOADED_MODULES_OUT"], "w") as out:
        out.write("\\n".join(sorted(sys.modules)))

atexit.register(_record)
"""


def run_fresh(tmp_path, *args):
    """Run ``python *args`` on this source tree; (process, names in its sys.modules at exit)."""
    (tmp_path / "sitecustomize.py").write_text(RECORDER)
    out = tmp_path / "modules.txt"
    path = os.pathsep.join(filter(None, [str(SRC), str(tmp_path), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, LOADED_MODULES_OUT=str(out))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    return proc, set(out.read_text().split())


def scipy_modules(names):
    return sorted(name for name in names if name == "scipy" or name.startswith("scipy."))


def test_parse_model_and_attack_synthesis_load_no_scipy(tmp_path):
    proc, names = run_fresh(tmp_path, "-c", API_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert "fdilab.attack" in names
    assert scipy_modules(names) == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["attack", "random", *CASE, "--support", "0,1,2"], 0),
        (["attack", "targeted", *CASE, "--pin", "3=0.1"], 0),
        (["attack", "random", *CASE, "--support", "a,1"], 2),
    ],
    ids=["random", "targeted", "malformed support"],
)
def test_attack_commands_load_no_scipy(tmp_path, argv, code):
    proc, names = run_fresh(tmp_path, "-m", "fdilab", *argv)
    assert proc.returncode == code, proc.stderr
    assert "fdilab.cli" in names
    assert scipy_modules(names) == []


def test_estimate_loads_scipy_linalg_but_not_special(tmp_path):
    proc, names = run_fresh(
        tmp_path, "-m", "fdilab", "estimate", *CASE, "--measurements", str(CASES_5BUS / "measurements.json")
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy.linalg" in names
    assert "scipy.special" not in names


def test_parse_and_model_load_no_numpy_random(tmp_path):
    proc, names = run_fresh(tmp_path, "-c", MODEL_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert "fdilab.caseio" in names
    assert "numpy" in names and "numpy.random" not in names


def test_montecarlo_loads_numpy_random(tmp_path):
    proc, names = run_fresh(tmp_path, "-m", "fdilab", "montecarlo", str(CASES_5BUS / "mc_clean.json"), "--trials", "10")
    assert proc.returncode == 0, proc.stderr
    assert "numpy.random" in names
