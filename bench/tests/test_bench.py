"""Tests of the benchmark itself: generator determinism, checks that trip on
corrupted outputs, and the metric set every workload emits.

Run with ``PYTHONPATH=src python -m pytest bench/tests``. Workloads run here
on shrunken grids and for one cycle, so the tests take seconds.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import calibrate  # noqa: E402
import gridgen  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from fdilab import caseio, market, scenario  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:critical meters excluded")

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = gridgen.GridParams(buses=40, meters_per_state=1.8)


def test_generator_is_deterministic_per_seed(tmp_path):
    one = gridgen.write_grid(gridgen.make_grid(7, SMALL), tmp_path / "one")
    two = gridgen.write_grid(gridgen.make_grid(7, SMALL), tmp_path / "two")
    other = gridgen.write_grid(gridgen.make_grid(8, SMALL), tmp_path / "other")
    for key in one:
        assert one[key].read_bytes() == two[key].read_bytes()
    assert one["network"].read_bytes() != other["network"].read_bytes()


def test_generated_grid_has_the_stated_shape_and_a_feasible_market(tmp_path):
    grid = gridgen.make_grid(3, SMALL)
    paths = gridgen.write_grid(grid, tmp_path)
    net = caseio.parse_network(paths["network"])
    meters = caseio.parse_meters(paths["meters"], net)
    assert len(net.branches) == 39 + round(0.4 * 39)
    assert len(meters) == round(1.8 * 39)
    assert {m.branch for m in meters.meters} == set(range(len(net.branches)))
    assert all(m.orientation == -1 for m in meters.meters[len(net.branches):])
    result = market.solve_dc_opf(caseio.parse_market(paths["market"], net))
    assert oracles.check_dispatch(result, grid.network, grid.market) == []


@pytest.fixture
def small_inputs(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["attack-sweep"], grid=SMALL)
    inputs = workloads.prepare(workload, 5, tmp_path / "inputs", ROOT / "cases" / "5bus")
    return workload, inputs, workloads.Model(inputs.case)


def _first(inputs, kind):
    return next(op for op in inputs.pipeline if op.kind == kind)


def test_clean_outputs_pass_the_checks(small_inputs):
    workload, inputs, model = small_inputs
    for kind in ("estimate", "detect", "gross", "random"):
        result = workloads.check(workloads.run_pipeline(_first(inputs, kind)), inputs.case)
        assert result.problems == [] and result.error is None, kind
    attempts = workloads.attack_stream(inputs.case, 5)
    for _ in range(8):
        assert workloads.check(workloads.run_attack(next(attempts), model, inputs.case), inputs.case).problems == []


def test_targeted_market_scenarios_report_the_known_defect_apart(small_inputs):
    workload, inputs, _ = small_inputs
    assert [op.kind for op in inputs.market_attacks] == ["targeted+market"] * workload.scenarios_per_kind
    assert all(op.kind != "targeted+market" for op in inputs.pipeline)
    results, problems = workloads.probe_market_attacks(inputs)
    assert problems == []
    assert all(r.error is None or r.error.startswith(workloads.KNOWN_DEFECT) for r in results)


def test_other_errors_of_targeted_market_scenarios_are_problems(small_inputs, monkeypatch):
    _, inputs, _ = small_inputs

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(scenario, "perceived_case_from_attack", broken)
    _, problems = workloads.probe_market_attacks(inputs)
    assert len(problems) >= len(inputs.market_attacks)


def test_oracle_is_built_only_when_outputs_are_checked(small_inputs):
    _, inputs, _ = small_inputs
    result = workloads.run_pipeline(_first(inputs, "detect"))
    assert "oracle" not in vars(inputs.case) and result.output is not None
    workloads.check(result, inputs.case)
    assert "oracle" in vars(inputs.case) and result.output is None


def test_corrupted_estimate_trips_the_checks(small_inputs, monkeypatch):
    _, inputs, _ = small_inputs
    original = scenario.wls_estimate

    def skewed(H, z, w):
        res = original(H, z, w)
        return dataclasses.replace(res, state=res.state + 1e-4)

    monkeypatch.setattr(scenario, "wls_estimate", skewed)
    result = workloads.check(workloads.run_pipeline(_first(inputs, "detect")), inputs.case)
    assert any("H'R^-1 r" in p for p in result.problems)
    assert result.failed


def test_corrupted_dispatch_trips_the_checks(small_inputs, monkeypatch):
    _, inputs, _ = small_inputs
    original = scenario.solve_dc_opf

    def unbalanced(case):
        res = original(case)
        return dataclasses.replace(res, gen_output=res.gen_output * 1.01)

    monkeypatch.setattr(scenario, "solve_dc_opf", unbalanced)
    result = workloads.check(workloads.run_pipeline(_first(inputs, "detect")), inputs.case)
    assert any("demand" in p for p in result.problems)


def test_corrupted_attack_trips_the_checks(small_inputs, monkeypatch):
    _, inputs, model = small_inputs
    original = workloads.attack_mod.random_constrained_attack

    def leaky(H, controlled, seed=None, magnitude=0.1):
        atk = original(H, controlled, seed=seed, magnitude=magnitude)
        a = atk.a.copy()
        a[next(i for i in range(len(a)) if i not in set(controlled))] = 1e-3
        return dataclasses.replace(atk, a=a)

    monkeypatch.setattr(workloads.attack_mod, "random_constrained_attack", leaky)
    bound = inputs.case.m - inputs.case.n + 1
    op = next(op for op in workloads.attack_stream(inputs.case, 5) if op.controlled and len(op.controlled) >= bound)
    problems = workloads.check(workloads.run_attack(op, model, inputs.case), inputs.case).problems
    assert any("not H c" in p for p in problems)


def test_calibration_runs_in_a_worker_that_stops():
    with calibrate.Calibrator("mixed") as calibrator:
        assert calibrator.burst() > 0
        worker = calibrator._proc
    assert worker.poll() is not None


@pytest.mark.parametrize("seconds, min_cycles, ops", [(4.4, 1, 3), (5.0, 1, 6), (7.6, 1, 9), (4.4, 2, 6), (7.6, 2, 9)])
def test_run_ends_at_the_cycle_boundary_nearest_to_the_time(seconds, min_cycles, ops, monkeypatch):
    stream = ((cycle, None) for cycle in range(100) for _ in range(3))
    monkeypatch.setattr(workloads, "op_stream", lambda workload, inputs: stream)
    monkeypatch.setattr(workloads, "execute", lambda *args: workloads.OpResult("mc", "clean", 1.0))
    workload = dataclasses.replace(workloads.WORKLOADS["mc-5bus"], min_cycles=min_cycles)
    results, _ = harness.measure(workload, None, None, seconds=seconds)
    assert len(results) == ops


def test_false_positive_bound():
    assert oracles.false_positive_problems(100, 10_000, 0.99) == []
    assert oracles.false_positive_problems(200, 10_000, 0.99) != []


def _run(monkeypatch, tmp_path, capsys, name, trace, **changes):
    small = dataclasses.replace(workloads.WORKLOADS[name], **changes)
    monkeypatch.setitem(workloads.WORKLOADS, name, small)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    assert harness.run(ROOT, tmp_path, name, 3, 0.01, trace) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


SHRINK = {
    "mc-5bus": {"mc_trials": 50, "scenarios_per_kind": 2},
    "grid-1k": {"grid": SMALL},
    "attack-sweep": {"grid": SMALL},
}


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_emits_every_named_metric(name, trace, monkeypatch, tmp_path, capsys):
    result = _run(monkeypatch, tmp_path, capsys, name, trace, **SHRINK[name])
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def test_corrupted_output_makes_the_run_incorrect(monkeypatch, tmp_path, capsys):
    original = scenario.wls_estimate

    def skewed(H, z, w):
        res = original(H, z, w)
        return dataclasses.replace(res, state=res.state + 1e-4)

    monkeypatch.setattr(scenario, "wls_estimate", skewed)
    result = _run(monkeypatch, tmp_path, capsys, "mc-5bus", False, **SHRINK["mc-5bus"])
    assert result["correct"] is False
    assert result["failed"] > 0
