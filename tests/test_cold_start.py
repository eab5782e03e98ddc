"""Which of fdilab's own modules, and which scipy and numpy.random modules, a fresh
interpreter loads for each kind of work.

``import fdilab`` runs none of fdilab's modules: each public name and module loads on
first access. Parsing a case and building H and weights, the bench's set-up probe,
load ``errors``, ``network``, ``caseio`` and ``estimation`` alone; synthesizing an
attack adds ``attack`` and ``detection``; only a scenario, a market file or a dispatch
loads ``scenario`` or ``market``. Parsing a case, building H and weights and synthesizing a
stealth attack need numpy alone, so neither they nor ``fdilab attack`` load scipy.
The first factorisation loads ``scipy.linalg`` and the first detection threshold
``scipy.special``. Parsing and building H and weights load no ``numpy.random``
either, which numpy loads on first use; the Monte Carlo does. Each check runs a new
interpreter with a ``sitecustomize`` that writes the names in ``sys.modules`` to a
file at exit. (``-X importtime`` cannot stand in for it: it does not list
``scipy.special``.)
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdilab
from conftest import CASES_5BUS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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


def fdilab_modules(names):
    return {name for name in names if name == "fdilab" or name.startswith("fdilab.")}


# the modules that parsing a case and building H and weights do not need
SCENARIO_MODULES = {"fdilab.scenario", "fdilab.attack", "fdilab.detection", "fdilab.market"}


def test_setup_probe_loads_four_fdilab_modules(tmp_path):
    probe = ROOT / "bench" / "setup_probe.py"
    proc, names = run_fresh(tmp_path, str(probe), str(CASES_5BUS / "network.json"), str(CASES_5BUS / "meters.json"))
    assert proc.returncode == 0, proc.stderr
    assert fdilab_modules(names) == {"fdilab", "fdilab.errors", "fdilab.network", "fdilab.caseio", "fdilab.estimation"}


def test_parse_model_and_attack_synthesis_load_no_scipy(tmp_path):
    proc, names = run_fresh(tmp_path, "-c", API_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert fdilab_modules(names) & SCENARIO_MODULES == {"fdilab.attack", "fdilab.detection"}
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
    assert "fdilab.caseio" in names and "fdilab.estimation" in names
    assert fdilab_modules(names) & SCENARIO_MODULES == set()
    assert "numpy" in names and "numpy.random" not in names


def test_montecarlo_loads_numpy_random(tmp_path):
    proc, names = run_fresh(tmp_path, "-m", "fdilab", "montecarlo", str(CASES_5BUS / "mc_clean.json"), "--trials", "10")
    assert proc.returncode == 0, proc.stderr
    assert "numpy.random" in names


# fdilab's public names before its modules loaded on first access, listed as they were
PUBLIC_NAMES = [
    "AttackVector", "Branch", "DetectionMethod", "DetectionReport", "DispatchCase", "DispatchResult",
    "EstimationResult", "Generator", "MeasurementMatrix", "Meter", "MeterConfig", "MonteCarloSummary",
    "NetworkModel", "Scenario", "ScenarioReport", "WeightModel", "arbitrage_profit", "attack_from_c",
    "build_h_matrix", "chi_square_quantile", "chi_square_test", "gaussian_quantile", "lnr_test",
    "parse_scenario", "perceived_case_from_attack", "random_constrained_attack", "residual_covariance",
    "run_monte_carlo", "run_scenario", "simulate_measurements", "solve_dc_opf", "targeted_attack",
    "verify_stealth", "wls_estimate",
]
SUBMODULES = ["attack", "caseio", "detection", "errors", "estimation", "market", "network", "scenario"]


def test_package_surface():
    assert fdilab.__all__ == PUBLIC_NAMES
    assert sorted(dir(fdilab)) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        home = importlib.import_module(getattr(fdilab, name).__module__)
        assert getattr(fdilab, name) is getattr(home, name), name
    star: dict = {}
    exec("from fdilab import *", star)
    assert {name: star[name] for name in PUBLIC_NAMES} == {name: getattr(fdilab, name) for name in PUBLIC_NAMES}
    assert set(star) - {"__builtins__"} == set(PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fdilab.no_such_name
    with pytest.raises(ImportError):
        exec("from fdilab import no_such_name", {})


def test_submodules_resolve_after_a_bare_import(tmp_path):
    script = f"""
import sys
import fdilab
assert {{n for n in sys.modules if n.startswith("fdilab.")}} == set(), sorted(sys.modules)
for name in {SUBMODULES!r}:
    assert getattr(fdilab, name) is sys.modules["fdilab." + name], name
assert fdilab.scenario.run_scenario is fdilab.run_scenario
"""
    proc, names = run_fresh(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert fdilab_modules(names) == {"fdilab", *(f"fdilab.{name}" for name in SUBMODULES)}
