"""The benchmark's workloads: seeded inputs, operations and their checks.

Every workload is one process running a closed loop: the next operation
starts when the previous one returns. Operations come in three families,
and every workload runs all three so that each end-to-end metric is
measured on each workload; the families' shares and the grid size are
what set the workloads apart.

* ``mc``: parse a Monte Carlo scenario file, ``run_monte_carlo`` and
  render the summary as text and CSV (``fdilab montecarlo --out``).
* ``pipeline``: parse a scenario file, ``run_scenario`` and render the
  report as text and CSV (``fdilab scenario run --out``).
* ``attack``: synthesize a random-foothold or targeted stealth attack on
  an in-memory H and, when feasible, ``verify_stealth`` on simulated z.

Each operation is timed on its own and keeps its output; ``check`` runs
the oracle checks on it later, after the timed loop, so that the oracle's
dense model never shares the process's peak memory with fdilab's work.

No operation of the timed loop is expected to fail. Targeted attacks with
a market leg hit the known defect of ROADMAP item 4 (the perceived case
gets a negative load), so the loop runs the targeted scenarios without
the market leg, and ``probe_market_attacks`` runs each of them once more
with it, after the loop, to report the defect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import gridgen
import oracles
from fdilab import attack as attack_mod
from fdilab import caseio, estimation, network, scenario
from fdilab.errors import FdiLabError, InfeasibleSupport

CONFIDENCE = 0.99
PIN_RANGE_RAD = (0.005, 0.03)
GROSS_ERROR_PU = 0.5
ATTACK_MAGNITUDE_PU = 0.1
PIPELINE_KINDS = ("estimate", "detect", "gross", "random", "targeted")
# The error of ROADMAP item 4: an injection shift becomes a negative perceived Load.
KNOWN_DEFECT = "ValidationError stage=market: load at bus"
GOLDEN_RATIO_CONJUGATE = 0.6180339887498949


@dataclass(frozen=True)
class Workload:
    name: str
    grid: gridgen.GridParams | None     # None: the bundled 5-bus case
    cycle: tuple[tuple[str, int], ...]  # (family, operations) per cycle
    mc_trials: int                      # trials per run_monte_carlo call
    scenarios_per_kind: int             # pipeline scenario files per kind
    calibration: str = "mixed"          # calibration kernel matching the dominant work
    min_cycles: int = 1                 # whole cycles a run makes, however long they take


# Why each workload exists is recorded in BENCHMARK.json. In short: mc-5bus is
# per-trial Python and per-call overhead, grid-1k is dense O(m n^2) algebra and
# LP assembly at 1000 buses, attack-sweep is attack synthesis and re-estimation
# on a fixed H with a new a per call.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-5bus", None, (("mc", 2), ("pipeline", 5), ("attack", 8)), 1000, 20),
        Workload(
            "grid-1k",
            gridgen.GridParams(buses=1000, meters_per_state=1.8),
            (("pipeline", 5), ("mc", 2), ("attack", 4)),
            5,
            4,
            calibration="dense",
            # One cycle takes about 16 s here; two give enough operations for steady medians.
            min_cycles=2,
        ),
        Workload(
            "attack-sweep",
            gridgen.GridParams(buses=118, meters_per_state=2.0),
            (("attack", 40), ("mc", 1), ("pipeline", 5)),
            20,
            4,
        ),
    )
}


# -- inputs ----------------------------------------------------------------------


@dataclass
class Case:
    """A network with meters and a market, as files in ``directory`` and as JSON documents."""

    directory: Path
    x_true: list[float]
    market_network_file: str = "network.json"   # the network market scenarios dispatch on

    def __post_init__(self):
        self.network = _load(self.directory / "network.json")
        self.meters = _load(self.directory / "meters.json")
        self.market = _load(self.directory / "market.json")
        self.market_network = _load(self.directory / self.market_network_file)
        slack = int(self.network["slack"])
        self.state_buses = [int(b) for b in self.network["buses"] if int(b) != slack]
        self.m, self.n = len(self.meters["meters"]), len(self.state_buses)

    @cached_property
    def oracle(self) -> oracles.Oracle:
        """Built on first use, which is after the timed loop."""
        return oracles.Oracle(self.network, self.meters)


@dataclass(frozen=True)
class PipelineOp:
    path: Path
    kind: str
    support: tuple[int, ...] = ()


@dataclass(frozen=True)
class McOp:
    path: Path
    clean: bool
    base_seed: int


@dataclass(frozen=True)
class AttackOp:
    controlled: tuple[int, ...] | None   # None: targeted
    pinned: dict | None
    attack_seed: int
    noise_seed: int


@dataclass
class Inputs:
    case: Case
    pipeline: list[PipelineOp]
    mc: list[tuple[Path, bool]]
    seed: int
    market_attacks: list[PipelineOp]   # targeted + market scenarios, see probe_market_attacks


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def bundled_case(cases_dir: Path, directory: Path) -> Case:
    directory.mkdir(parents=True, exist_ok=True)
    for src in sorted(cases_dir.glob("*.json")):
        shutil.copyfile(src, directory / src.name)
    x_true = _load(directory / "mc_clean.json")["measurements"]["simulate"]["x_true"]
    return Case(directory, x_true, market_network_file="network_limit34.json")


def synthetic_case(seed: int, params: gridgen.GridParams, directory: Path) -> Case:
    grid = gridgen.make_grid(seed, params)
    gridgen.write_grid(grid, directory)
    return Case(directory, [float(v) for v in grid.theta_ref])


def _scenario_doc(case: Case, name: str, seed: int, **extra) -> dict:
    doc = {
        "name": name,
        "network": "network.json",
        "meters": "meters.json",
        "measurements": {"simulate": {"x_true": case.x_true, "seed": seed}},
    }
    doc.update(extra)
    return doc


def _market_leg(case: Case, sell_bus: int) -> dict:
    cheapest = min(case.market["generators"], key=lambda g: g["price"])
    return {"file": "market.json", "buy_bus": cheapest["bus"], "sell_bus": sell_bus, "quantity_mw": 1.0}


def write_pipeline_scenarios(
    case: Case, rng: np.random.Generator, per_kind: int
) -> tuple[list[PipelineOp], list[PipelineOp]]:
    """Scenario files interleaved by kind: estimate, detect, gross, random, targeted, ...;
    and each targeted scenario again with a market leg."""
    both = [{"method": "chi_square", "confidence": CONFIDENCE}, {"method": "lnr", "confidence": CONFIDENCE}]
    ops, market_attacks = [], []
    for j in range(per_kind):
        for kind in PIPELINE_KINDS:
            seed = int(rng.integers(2**31))
            name = f"{kind}-{j}"
            support: tuple[int, ...] = ()
            if kind == "estimate":
                doc = _scenario_doc(case, name, seed, detectors=[])
            elif kind == "detect":
                sell = int(rng.choice(case.state_buses))
                doc = _scenario_doc(
                    case, name, seed, detectors=both, network=case.market_network_file,
                    market=_market_leg(case, sell),
                )
            elif kind == "gross":
                meter = int(rng.integers(case.m))
                doc = _scenario_doc(
                    case, name, seed, detectors=both,
                    attack={"type": "gross_error", "meter": meter, "magnitude_pu": GROSS_ERROR_PU},
                )
            elif kind == "random":
                support = tuple(sorted(int(i) for i in rng.choice(case.m, size=case.m - case.n + 1, replace=False)))
                doc = _scenario_doc(
                    case, name, seed, detectors=both,
                    attack={"type": "random", "support": list(support), "seed": seed,
                            "magnitude": ATTACK_MAGNITUDE_PU},
                )
            else:
                pins = rng.choice(case.state_buses, size=min(len(case.state_buses), int(rng.integers(1, 3))), replace=False)
                pinned = {str(int(b)): float(rng.uniform(*PIN_RANGE_RAD)) for b in pins}
                doc = _scenario_doc(case, name, seed, detectors=both, attack={"type": "targeted", "pinned": pinned})
                with_market = dict(
                    doc, name=f"{name}-market", network=case.market_network_file,
                    market=_market_leg(case, int(pins[0])),
                )
                path = case.directory / f"scenario-{name}-market.json"
                path.write_text(json.dumps(with_market) + "\n")
                market_attacks.append(PipelineOp(path=path, kind="targeted+market"))
            path = case.directory / f"scenario-{name}.json"
            path.write_text(json.dumps(doc) + "\n")
            ops.append(PipelineOp(path=path, kind=kind, support=support))
    return ops, market_attacks


def write_mc_scenarios(case: Case, rng: np.random.Generator, bundled: bool) -> list[tuple[Path, bool]]:
    """A clean Monte Carlo scenario and its gross-error variant."""
    clean = case.directory / "mc_clean.json"
    if bundled:
        doc = _load(clean)
        meter = 2  # as in case2.json
    else:
        doc = _scenario_doc(case, "mc-clean", int(rng.integers(2**31)))
        clean.write_text(json.dumps(doc) + "\n")
        meter = int(rng.integers(case.m))
    gross = dict(doc, name=f"{doc['name']}-gross-error")
    gross["attack"] = {"type": "gross_error", "meter": meter, "magnitude_pu": GROSS_ERROR_PU}
    gross_path = case.directory / "mc_gross.json"
    gross_path.write_text(json.dumps(gross) + "\n")
    return [(clean, True), (gross_path, False)]


def prepare(workload: Workload, seed: int, work_dir: Path, cases_dir: Path) -> Inputs:
    """Write every input file the workload reads; nothing here is timed."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    rng = np.random.default_rng([seed, 1])
    if workload.grid is None:
        case = bundled_case(cases_dir, work_dir)
    else:
        case = synthetic_case(seed, workload.grid, work_dir)
    pipeline, market_attacks = write_pipeline_scenarios(case, rng, workload.scenarios_per_kind)
    mc = write_mc_scenarios(case, rng, bundled=workload.grid is None)
    return Inputs(case=case, pipeline=pipeline, mc=mc, seed=seed, market_attacks=market_attacks)


def attack_stream(case: Case, seed: int):
    """Endless seeded attack attempts: every fourth pins one state angle, the others
    take footholds whose sizes sweep 1 .. m - n + 1 + n/4 evenly, so they straddle
    the m - n + 1 bound above which every foothold is feasible."""
    rng = np.random.default_rng([seed, 2])
    low, high = 1, min(case.m, case.m - case.n + 1 + case.n // 4)
    for i in itertools.count():
        attack_seed, noise_seed = (int(v) for v in rng.integers(2**31, size=2))
        if i % 4 == 3:
            bus = int(rng.choice(case.state_buses))
            yield AttackOp(None, {bus: float(rng.uniform(*PIN_RANGE_RAD))}, attack_seed, noise_seed)
        else:
            size = low + int((i * GOLDEN_RATIO_CONJUGATE) % 1.0 * (high - low + 1))
            controlled = tuple(sorted(int(i) for i in rng.choice(case.m, size=size, replace=False)))
            yield AttackOp(controlled, None, attack_seed, noise_seed)


def op_stream(workload: Workload, inputs: Inputs):
    """The workload's operations, cycle after cycle; yields (cycle, op)."""
    attacks = attack_stream(inputs.case, inputs.seed)
    rng = np.random.default_rng([inputs.seed, 3])
    counters = {"mc": 0, "pipeline": 0}
    cycle = 0
    while True:
        for family, count in workload.cycle:
            for _ in range(count):
                if family == "attack":
                    yield cycle, next(attacks)
                elif family == "pipeline":
                    yield cycle, inputs.pipeline[counters["pipeline"] % len(inputs.pipeline)]
                    counters["pipeline"] += 1
                else:
                    path, clean = inputs.mc[counters["mc"] % len(inputs.mc)]
                    counters["mc"] += 1
                    yield cycle, McOp(path, clean, int(rng.integers(2**31)))
        cycle += 1


# -- execution -------------------------------------------------------------------


@dataclass
class OpResult:
    family: str
    kind: str
    seconds: float
    error: str | None = None          # "<Type> stage=<stage>: message" when it raised
    problems: list[str] = field(default_factory=list)
    trials: int = 0
    feasible: bool | None = None
    digest: str | None = None
    alarms: int = 0                   # chi-square alarms in a clean Monte Carlo call
    cycle: int = 0
    burst_s: float = 0.0              # calibration burst time around the operation (see harness.measure)
    op: object = None
    output: object = None             # what ``check`` inspects; dropped once checked

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


class Model:
    """In-memory H and weights for the attack family, built once per run."""

    def __init__(self, case: Case):
        net = caseio.parse_network(case.directory / "network.json")
        meters = caseio.parse_meters(case.directory / "meters.json", net)
        self.H = network.build_h_matrix(net, meters)
        self.weights = estimation.WeightModel(meters.sigmas)
        self.x_true = np.asarray(case.x_true)


def _describe(exc: FdiLabError) -> str:
    return f"{type(exc).__name__} stage={getattr(exc, 'stage', '-')}: {exc}"


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def run_pipeline(op: PipelineOp) -> OpResult:
    clock = time.perf_counter
    start = clock()
    try:
        report = scenario.run_scenario(scenario.parse_scenario(op.path))
        text, csv = report.to_text(), report.to_csv()
    except FdiLabError as exc:
        result = OpResult("pipeline", op.kind, clock() - start, error=_describe(exc))
        if isinstance(exc, InfeasibleSupport) and op.kind == "random":
            result.problems.append(f"foothold of {len(op.support)} >= m - n + 1 reported infeasible")
        return result
    return OpResult("pipeline", op.kind, clock() - start, digest=_digest(text, csv), op=op, output=report)


def check_report(report, op: PipelineOp, case: Case) -> list[str]:
    oracle = case.oracle
    z = np.asarray(report.measured)
    problems = oracle.check_estimate(z, report.observed)
    problems += oracle.check_detections(z, report.observed, report.detections)
    if report.attack_vector is not None:
        z_clean = z - report.attack_vector.a
        problems += oracle.check_estimate(z_clean, report.clean)
        problems += oracle.check_stealth(
            z_clean, report.attack_vector, op.support if op.kind == "random" else None, CONFIDENCE
        )
        shift = np.asarray(report.observed.state) - np.asarray(report.clean.state)
        if np.max(np.abs(shift - report.attack_vector.c)) > oracles.STATE_RTOL * (
            1e-6 + np.max(np.abs(report.attack_vector.c))
        ):
            problems.append("reported estimate shift differs from c")
    if report.market_before is not None:
        problems += oracles.check_dispatch(report.market_before, case.market_network, case.market)
        nodal = report.market_after is report.market_before
        problems += oracles.check_dispatch(report.market_after, case.market_network, case.market, nodal=nodal)
    return problems


def run_mc(op: McOp, trials: int) -> OpResult:
    clock = time.perf_counter
    start = clock()
    try:
        summary = scenario.run_monte_carlo(scenario.parse_scenario(op.path), trials, op.base_seed)
        text, csv = summary.to_text(), summary.to_csv()
    except FdiLabError as exc:
        return OpResult("mc", "clean" if op.clean else "gross", clock() - start, error=_describe(exc))
    result = OpResult(
        "mc", "clean" if op.clean else "gross", clock() - start, trials=trials, digest=_digest(text, csv)
    )
    if summary.trials != trials or any(r.trials != trials or not 0 <= r.detections <= trials for r in summary.rates):
        result.problems.append("Monte Carlo counts are inconsistent with the trial count")
    if op.clean:
        result.alarms = next(r.detections for r in summary.rates if r.method.value == "chi_square")
    return result


def run_attack(op: AttackOp, model: Model, case: Case) -> OpResult:
    clock = time.perf_counter
    kind = "targeted" if op.controlled is None else "random"
    start = clock()
    try:
        if op.controlled is None:
            pinned = {model.H.state_index(bus): shift for bus, shift in op.pinned.items()}
            atk = attack_mod.targeted_attack(model.H, pinned)
        else:
            atk = attack_mod.random_constrained_attack(
                model.H, op.controlled, seed=op.attack_seed, magnitude=ATTACK_MAGNITUDE_PU
            )
    except InfeasibleSupport:
        result = OpResult("attack", kind, clock() - start, feasible=False)
        if len(op.controlled) >= case.m - case.n + 1:
            result.problems.append(f"foothold of {len(op.controlled)} >= m - n + 1 reported infeasible")
        return result
    except FdiLabError as exc:
        return OpResult("attack", kind, clock() - start, error=_describe(exc))
    try:
        z = estimation.simulate_measurements(model.H, model.x_true, model.weights, seed=op.noise_seed)
        stealthy = attack_mod.verify_stealth(z, atk, model.H, model.weights, CONFIDENCE)
    except FdiLabError as exc:
        return OpResult("attack", kind, clock() - start, feasible=True, error=_describe(exc))
    result = OpResult("attack", kind, clock() - start, feasible=True, op=op, output=(z, atk))
    if not stealthy:
        result.problems.append("verify_stealth rejected an a = Hc attack")
    return result


def execute(op, workload: Workload, inputs: Inputs, model: Model) -> OpResult:
    start = time.perf_counter()
    try:
        if isinstance(op, PipelineOp):
            return run_pipeline(op)
        if isinstance(op, McOp):
            return run_mc(op, workload.mc_trials)
        return run_attack(op, model, inputs.case)
    except Exception as exc:  # noqa: BLE001 - a crash fails this operation; the run goes on and reports it
        family = {PipelineOp: "pipeline", McOp: "mc", AttackOp: "attack"}[type(op)]
        message = f"{type(exc).__name__}: {exc}"
        return OpResult(family, "crash", time.perf_counter() - start, error=message, problems=[message])


def check(result: OpResult, case: Case) -> OpResult:
    """Run the oracle checks on a finished operation's output, then drop the output."""
    if result.output is None:
        return result
    try:
        if result.family == "pipeline":
            result.problems += check_report(result.output, result.op, case)
        else:
            z, atk = result.output
            result.problems += case.oracle.check_stealth(z, atk, result.op.controlled, CONFIDENCE)
    except Exception as exc:  # noqa: BLE001 - a check that crashes fails the operation
        result.problems.append(f"check crashed: {type(exc).__name__}: {exc}")
    result.output = None
    return result


def probe_market_attacks(inputs: Inputs) -> tuple[list[OpResult], list[str]]:
    """Run each targeted + market scenario once and check its output.

    Returns the results and the problems: the known defect's error is
    reported, not a problem; any other error or failed check is one.
    """
    results, problems = [], []
    for op in inputs.market_attacks:
        result = check(execute(op, None, inputs, None), inputs.case)
        results.append(result)
        problems += [f"targeted+market: {p}" for p in result.problems]
        if result.error is not None and not result.error.startswith(KNOWN_DEFECT):
            problems.append(f"targeted+market: unexpected {result.error.split(':')[0]}")
    return results, problems
