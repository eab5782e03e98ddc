"""Byte-for-byte regression of every CLI command on the bundled 5-bus case.

Each command's stdout and its ``--out`` file are compared with the files
under ``tests/golden/``, which were captured from the CLI before the
estimator, detector and report code was consolidated. A refactor that
changes a single printed digit fails here.
"""

from pathlib import Path

import pytest

from conftest import CASES_5BUS
from fdilab.cli import main

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
