"""Byte-for-byte regression of every CLI command on the bundled 5-bus case.

Each command's stdout and its ``--out`` file are compared with the files
under ``tests/golden/``, which were captured from the CLI before the
estimator, detector and report code was consolidated. A refactor that
changes a single printed digit fails here.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import CASES_5BUS
from fdilab.cli import main
from fdilab.scenario import parse_scenario, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"

_MODEL = ["--case", str(CASES_5BUS / "network.json"), "--meters", str(CASES_5BUS / "meters.json")]
_RECORDED = [*_MODEL, "--measurements", str(CASES_5BUS / "measurements.json")]
_MARKET = ["--market", str(CASES_5BUS / "market.json")]

# name -> (argv, suffix of the --out file)
COMMANDS = {
    "estimate": (["estimate", *_RECORDED], ".csv"),
    "detect_099": (["detect", *_RECORDED, "--confidence", "0.99"], ".csv"),
    "detect_095": (["detect", *_RECORDED, "--confidence", "0.95"], ".csv"),
    "attack_random": (["attack", "random", *_MODEL, "--support", "0,2,3", "--seed", "7"], ".json"),
    "attack_targeted": (["attack", "targeted", *_MODEL, "--pin", "3=0.03"], ".json"),
    "opf": (["opf", "--case", str(CASES_5BUS / "network.json"), *_MARKET], ".csv"),
    "opf_limit34": (["opf", "--case", str(CASES_5BUS / "network_limit34.json"), *_MARKET], ".csv"),
    **{
        f"scenario_{name}": (["scenario", "run", str(CASES_5BUS / f"{name}.json")], ".csv")
        for name in ("case1", "case2", "case3", "profit")
    },
    "montecarlo": (
        ["montecarlo", str(CASES_5BUS / "mc_clean.json"), "--trials", "2000", "--seed", "7"],
        ".csv",
    ),
}


def run_command(name, out_dir: Path, capsys) -> tuple[bytes, bytes]:
    """Run one command through ``main``; return its stdout and ``--out`` file bytes."""
    argv, suffix = COMMANDS[name]
    out = out_dir / f"{name}{suffix}"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 0
    return capsys.readouterr().out.encode(), out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    stdout, written = run_command(name, tmp_path, capsys)
    suffix = COMMANDS[name][1]
    assert stdout == (GOLDEN / f"{name}.txt").read_bytes()
    assert written == (GOLDEN / f"{name}{suffix}").read_bytes()


def write_grid_scenarios(directory: Path) -> dict[str, Path]:
    """A fixed 30-bus case and one scenario file per pipeline kind; returns kind -> path.

    The network is a random spanning tree plus 12 extra lines, about half of
    them parallel to a tree line, with random branch directions and input
    order and a random slack. Every branch is metered, a random way round,
    and about 30% of them both ways, so m is about 1.8 n. A meter on a
    parallel line lands on the first of its pair, a reversed duplicate.
    """
    rng = np.random.default_rng(30)
    buses = [int(b) for b in rng.permutation(np.arange(1, 31))]
    pairs = [(buses[k], buses[rng.integers(k)]) for k in range(1, 30)]
    for _ in range(12):
        f, t = pairs[rng.integers(len(pairs))] if rng.random() < 0.5 else rng.choice(buses, 2, replace=False)
        pairs.append((int(f), int(t)))
    pairs = [(t, f) if rng.random() < 0.5 else (f, t) for f, t in pairs]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    slack = buses[int(rng.integers(30))]
    reactances = rng.uniform(0.01, 0.5, len(pairs)).round(4)
    meters = []
    for f, t in pairs:
        ends = [f, t] if rng.random() < 0.5 else [t, f]
        for pair in [ends, ends[::-1]] if rng.random() < 0.3 else [ends]:
            meters.append({"branch": pair, "sigma": round(float(rng.uniform(0.005, 0.05)), 4)})
    m, n = len(meters), len(buses) - 1
    network = {
        "base_mva": 100,
        "slack": slack,
        "buses": buses,
        "branches": [{"from": f, "to": t, "x_pu": float(x)} for (f, t), x in zip(pairs, reactances)],
    }
    (directory / "network.json").write_text(json.dumps(network))
    (directory / "meters.json").write_text(json.dumps({"meters": meters}))
    state = [b for b in buses if b != slack]
    pinned = {str(b): float(v) for b, v in zip(rng.choice(state, 2, replace=False), (0.05, -0.02))}
    kinds = {
        "estimate": ({"type": "none"}, []),
        "detect": ({"type": "none"}, [{"method": "chi_square"}, {"method": "lnr"}]),
        "gross": ({"type": "gross_error", "meter": int(rng.integers(m)), "magnitude_pu": 0.5}, None),
        "random": ({"type": "random", "support": sorted(rng.choice(m, m - n + 1, replace=False).tolist()),
                    "seed": 7, "magnitude": 0.1}, None),
        "targeted": ({"type": "targeted", "pinned": pinned}, None),
    }
    x_true = rng.normal(scale=0.1, size=n).round(6).tolist()
    paths = {}
    for kind, (attack, detectors) in kinds.items():
        doc = {"name": f"grid30-{kind}", "network": "network.json", "meters": "meters.json",
               "measurements": {"simulate": {"x_true": x_true, "seed": 11}}, "attack": attack}
        if detectors is not None:
            doc["detectors"] = detectors
        paths[kind] = directory / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    return paths


# sha256 of the text report followed by the CSV report of each kind on the
# 30-bus case above, captured before the meter-graph walks were merged.
GRID_REPORT_SHA256 = {
    "estimate": "01859d9bd02dbd9d4080f2b195588ab1f7bced31d8331fc9385349c00152a02b",
    "detect": "f2357afeb7feb2630813d8379083bcbc3ad15c4bfea25e7b98ea5801b4d2d630",
    "gross": "812080eb267ebcff2b08781bb35c806420f27f9ae54dab16c5a9b9a09e9eff42",
    "random": "5c68f02dd991cf0703df0dd838425fedb7dab71402e9d35ac88efff07a0f3234",
    "targeted": "b997ef5b84256b1f862e2e56af426bebfdfc7ec977ae466e77cbce701674ff92",
}


@pytest.fixture(scope="module")
def grid_scenarios(tmp_path_factory):
    return write_grid_scenarios(tmp_path_factory.mktemp("grid30"))


@pytest.mark.parametrize("kind", sorted(GRID_REPORT_SHA256))
@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_grid_reports_keep_their_bytes(kind, grid_scenarios):
    report = run_scenario(parse_scenario(grid_scenarios[kind]))
    digest = hashlib.sha256((report.to_text() + report.to_csv()).encode()).hexdigest()
    assert digest == GRID_REPORT_SHA256[kind]
