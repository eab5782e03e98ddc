"""Scenario engine: end-to-end pipelines and Monte Carlo harness.

A scenario file names a network, a meter set, a measurement source (a
recorded file or a seeded simulation from a true state), an optional
attack, the detectors to run and an optional market leg. ``run_scenario``
executes the pipeline

    measurements -> attack -> estimate -> detect -> dispatch/profit

and returns a report whose text and CSV renderings are byte-for-byte
deterministic given identical inputs and seeds. ``run_monte_carlo``
repeats the pipeline over independently seeded noise realizations, a
block of trials at a time, and aggregates detection rates.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import caseio
from .attack import AttackVector, random_constrained_attack, targeted_attack
from .caseio import _integer, _number
from .detection import DetectionMethod, DetectionReport, Detector, DetectorSpec
from .errors import FdiLabError, ParseError, ValidationError
from .estimation import (
    EstimationResult,
    WeightModel,
    WlsModel,
    _true_flows,
    simulate_measurements,
    wls_estimate,
)
from .market import DispatchResult, arbitrage_profit, perceived_case_from_attack, solve_dc_opf
from .network import MeasurementMatrix, MeterConfig, NetworkModel, build_h_matrix


# A Monte Carlo block holds about this many measurement values (trials x meters),
# so its arrays stay a few megabytes on any grid, whatever the trial count.
MC_BLOCK_ELEMENTS = 1 << 16


def _fmt(value) -> str:
    return f"{float(value):.6f}"


# -- CSV rendering ---------------------------------------------------------------

def _row(stage: str, quantity: str, index, value) -> tuple[str, str, str, str]:
    return (stage, quantity, str(index), _fmt(value))


def _csv(rows) -> str:
    """The CSV report: the fixed header, then one line per (stage, quantity, index, value) row."""
    return "\n".join(["stage,quantity,index,value", *(",".join(row) for row in rows)]) + "\n"


def _branch_names(net: NetworkModel) -> tuple[str, ...]:
    """The "from-to" name of each branch, as reports print it."""
    return tuple(f"{br.from_bus}-{br.to_bus}" for br in net.branches)


def _dispatch_rows(stage: str, result: DispatchResult, names: tuple[str, ...]) -> list:
    """CSV rows of one dispatch: generation, branch flows, LMPs and cost."""
    return [
        *(_row(stage, "gen_mw", g, mw) for g, mw in enumerate(result.gen_output)),
        *(_row(stage, "flow_mw", names[b], flow) for b, flow in enumerate(result.flows)),
        *(_row(stage, "lmp", bus, price) for bus, price in result.lmp.items()),
        _row(stage, "objective_per_h", "", result.objective),
    ]


def _dispatch_lines(result: DispatchResult, names: tuple[str, ...]) -> list[str]:
    """Text lines of one dispatch after its generation: LMPs, binding lines and cost."""
    out = [f"  lmp(bus {bus}) = {_fmt(price)} $/MWh" for bus, price in result.lmp.items()]
    if result.binding_lines:
        out.append(f"  binding lines: {', '.join(names[b] for b in result.binding_lines)}")
    out.append(f"  cost = {_fmt(result.objective)} $/h")
    return out


@contextlib.contextmanager
def _stage(name: str):
    """Tag any domain error with the pipeline stage it occurred in."""
    try:
        yield
    except FdiLabError as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise


# -- scenario description ------------------------------------------------------

@dataclass(frozen=True)
class FileSource:
    path: Path


@dataclass(frozen=True)
class SimulateSource:
    x_true: tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class RandomAttackSpec:
    support: tuple[int, ...]
    seed: int
    magnitude: float = 0.1


@dataclass(frozen=True)
class TargetedAttackSpec:
    pinned: tuple[tuple[int, float], ...]  # (bus id, angle shift in rad)


@dataclass(frozen=True)
class GrossErrorSpec:
    meter: int
    magnitude_pu: float


@dataclass(frozen=True)
class MarketSpec:
    market_path: Path
    buy_bus: int
    sell_bus: int
    quantity_mw: float = 1.0


@dataclass(frozen=True)
class Scenario:
    name: str
    network_path: Path
    meters_path: Path
    measurements: FileSource | SimulateSource
    attack: RandomAttackSpec | TargetedAttackSpec | GrossErrorSpec | None = None
    detectors: tuple[DetectorSpec, ...] = (
        DetectorSpec(DetectionMethod.CHI_SQUARE),
        DetectorSpec(DetectionMethod.LNR),
    )
    market: MarketSpec | None = None


_METHOD_ALIASES = {
    "chi_square": DetectionMethod.CHI_SQUARE,
    "lnr": DetectionMethod.LNR,
    "largest_normalized_residual": DetectionMethod.LNR,
}


@caseio.reader
def parse_scenario(path) -> Scenario:
    """Read a scenario file; relative paths resolve against its directory."""
    path = Path(path)
    doc = caseio.load_json(path)
    base = path.parent

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    for key in ("name", "network", "meters", "measurements"):
        caseio._require(doc, key, path, "top level")

    meas = doc["measurements"]
    if "file" in meas:
        source = FileSource(path=resolve(meas["file"]))
    elif "simulate" in meas:
        sim = meas["simulate"]
        source = SimulateSource(
            x_true=tuple(_number(v) for v in caseio._require(sim, "x_true", path, "measurements.simulate")),
            seed=_integer(caseio._require(sim, "seed", path, "measurements.simulate")),
        )
    else:
        raise ParseError(path, "measurements", "expected 'file' or 'simulate'")

    attack_doc = doc.get("attack", {"type": "none"})
    kind = attack_doc.get("type", "none")
    if kind == "none":
        attack = None
    elif kind == "random":
        attack = RandomAttackSpec(
            support=tuple(_integer(i) for i in attack_doc["support"]),
            seed=_integer(attack_doc["seed"]),
            magnitude=_number(attack_doc.get("magnitude", 0.1)),
        )
    elif kind == "targeted":
        pinned = attack_doc.get("pinned", {})
        if not pinned:
            raise ParseError(path, "attack.pinned", "targeted attack needs pinned entries")
        attack = TargetedAttackSpec(
            pinned=tuple((int(bus), _number(shift)) for bus, shift in pinned.items())
        )
    elif kind == "gross_error":
        attack = GrossErrorSpec(
            meter=_integer(attack_doc["meter"]), magnitude_pu=_number(attack_doc["magnitude_pu"])
        )
    else:
        raise ParseError(path, "attack.type", f"unknown attack type '{kind}'")

    detectors = []
    for i, rec in enumerate(doc.get("detectors", [{"method": "chi_square"}, {"method": "lnr"}])):
        method = rec.get("method")
        if method not in _METHOD_ALIASES:
            raise ParseError(path, f"detectors[{i}]", f"unknown method '{method}'")
        detectors.append(
            DetectorSpec(method=_METHOD_ALIASES[method], confidence=_number(rec.get("confidence", 0.99)))
        )

    market = None
    if "market" in doc:
        mk = doc["market"]
        market = MarketSpec(
            market_path=resolve(caseio._require(mk, "file", path, "market")),
            buy_bus=_integer(caseio._require(mk, "buy_bus", path, "market")),
            sell_bus=_integer(caseio._require(mk, "sell_bus", path, "market")),
            quantity_mw=_number(mk.get("quantity_mw", 1.0)),
        )

    return Scenario(
        name=str(doc["name"]),
        network_path=resolve(doc["network"]),
        meters_path=resolve(doc["meters"]),
        measurements=source,
        attack=attack,
        detectors=tuple(detectors),
        market=market,
    )


# -- pipeline ------------------------------------------------------------------

def _load_model(
    network_path, meters_path
) -> tuple[NetworkModel, MeterConfig, MeasurementMatrix, WeightModel]:
    """Parse a network and its meters, then build H and the weights: the front of every pipeline."""
    with _stage("parse"):
        net = caseio.parse_network(network_path)
        meters = caseio.parse_meters(meters_path, net)
    with _stage("model"):
        return net, meters, build_h_matrix(net, meters), WeightModel(meters.sigmas)


@_stage("attack")
def _build_attack_vector(spec, H: MeasurementMatrix) -> tuple[np.ndarray | None, AttackVector | None]:
    """Return (perturbation added to z, AttackVector echo when a = Hc); (None, None) without an attack.

    This is the one place where a pinned bus becomes a state column.
    """
    if spec is None:
        return None, None
    if isinstance(spec, RandomAttackSpec):
        atk = random_constrained_attack(H, spec.support, seed=spec.seed, magnitude=spec.magnitude)
        return atk.a, atk
    if isinstance(spec, TargetedAttackSpec):
        pinned = {}
        for bus, shift in spec.pinned:
            column = H.state_index(bus)
            if column in pinned:
                raise ValidationError(f"bus {bus} is pinned more than once")
            pinned[column] = shift
        atk = targeted_attack(H, pinned)
        return atk.a, atk
    if isinstance(spec, GrossErrorSpec):
        if not 0 <= spec.meter < H.m:
            raise ValidationError(f"gross error meter {spec.meter} out of range 0..{H.m - 1}")
        a = np.zeros(H.m)
        a[spec.meter] = spec.magnitude_pu
        return a, None
    raise ValidationError(f"unsupported attack spec {spec!r}")


@_stage("attack")
def _attacked(z: np.ndarray, perturbation: np.ndarray | None) -> np.ndarray:
    """``z + perturbation`` (z itself without an attack); a sum that overflows is a ValidationError."""
    if perturbation is None:
        return z
    with np.errstate(over="ignore"):  # an overflow is an error below, not a warning
        attacked = z + perturbation
    if not np.isfinite(attacked).all():
        raise ValidationError("attacked measurements z + a must all be finite")
    return attacked


@dataclass(frozen=True)
class ScenarioReport:
    """Full record of one pipeline run; renders to text or CSV rows.

    Of the network it keeps only what the renderers print: the state buses,
    and the branch names when a market ran, since only the market sections
    name branches. A kept report holds no Branch objects.
    """

    name: str
    state_buses: tuple[int, ...]            # bus of each state entry, in column order
    branch_names: tuple[str, ...]           # "from-to" of each branch; () without a market
    measured: np.ndarray                    # what the operator received (post-attack)
    observed: EstimationResult              # estimate on `measured`
    clean: EstimationResult | None          # pre-attack estimate when an attack ran
    detections: tuple[DetectionReport, ...]
    attack_vector: AttackVector | None      # stealth attacks only
    gross_error: GrossErrorSpec | None
    market: MarketSpec | None = None
    market_before: DispatchResult | None = None
    market_after: DispatchResult | None = None
    profit_per_h: float | None = None

    def csv_rows(self) -> list[tuple[str, str, str, str]]:
        rows: list[tuple[str, str, str, str]] = []

        def add(stage, quantity, index, value):
            rows.append(_row(stage, quantity, index, value))

        for k, bus in enumerate(self.state_buses):
            add("estimation", "state_rad", bus, self.observed.state[k])
        for i in range(len(self.measured)):
            add("estimation", "measured_pu", i, self.measured[i])
            add("estimation", "fitted_pu", i, self.observed.fitted[i])
            add("estimation", "residual_pu", i, self.observed.residual[i])
        add("estimation", "objective", "", self.observed.objective)
        add("estimation", "weighted_residual_norm", "", np.sqrt(self.observed.objective))
        if self.clean is not None:
            for k, bus in enumerate(self.state_buses):
                add("estimation_clean", "state_rad", bus, self.clean.state[k])
            add("estimation_clean", "objective", "", self.clean.objective)
        if self.attack_vector is not None:
            for k, bus in enumerate(self.state_buses):
                add("attack", "c_rad", bus, self.attack_vector.c[k])
            for i in range(len(self.attack_vector.a)):
                add("attack", "a_pu", i, self.attack_vector.a[i])
            for i in self.attack_vector.support:
                add("attack", "support", i, 1.0)
        if self.gross_error is not None:
            add("attack", "gross_error_pu", self.gross_error.meter, self.gross_error.magnitude_pu)
        for rep in self.detections:
            stage = f"detection.{rep.method.value}"
            add(stage, "statistic", "", rep.statistic)
            add(stage, "threshold", "", rep.threshold)
            add(stage, "confidence", "", rep.confidence)
            add(stage, "detected", "", 1.0 if rep.bad_data_detected else 0.0)
            if rep.suspect_meter is not None:
                add(stage, "suspect_meter", rep.suspect_meter, 1.0)
        for label, result in (("market.before", self.market_before), ("market.after", self.market_after)):
            if result is None:
                continue
            rows.extend(_dispatch_rows(label, result, self.branch_names))
            for b in result.binding_lines:
                add(label, "binding", self.branch_names[b], 1.0)
        if self.profit_per_h is not None:
            add("market", "profit_per_h", "", self.profit_per_h)
        return rows

    def to_csv(self) -> str:
        return _csv(self.csv_rows())

    def to_text(self) -> str:
        out = [f"scenario: {self.name}"]
        out.append("[estimation]")
        for k, bus in enumerate(self.state_buses):
            out.append(f"  angle(bus {bus}) = {_fmt(self.observed.state[k])} rad")
        out.append(f"  objective J = {_fmt(self.observed.objective)}")
        out.append(f"  weighted residual norm = {_fmt(np.sqrt(self.observed.objective))}")
        if self.clean is not None:
            shift = self.observed.state - self.clean.state
            out.append("[attack effect]")
            for k, bus in enumerate(self.state_buses):
                out.append(f"  estimate shift(bus {bus}) = {_fmt(shift[k])} rad")
        if self.attack_vector is not None:
            out.append("[attack]")
            out.append(f"  support = {list(self.attack_vector.support)}")
            for i in self.attack_vector.support:
                out.append(f"  a[{i}] = {_fmt(self.attack_vector.a[i])} pu")
        if self.gross_error is not None:
            out.append("[attack]")
            out.append(
                f"  gross error on meter {self.gross_error.meter}: "
                f"{_fmt(self.gross_error.magnitude_pu)} pu"
            )
        out.append("[detection]")
        for rep in self.detections:
            verdict = "BAD DATA" if rep.bad_data_detected else "clean"
            line = (
                f"  {rep.method.value}: statistic={_fmt(rep.statistic)} "
                f"threshold={_fmt(rep.threshold)} -> {verdict}"
            )
            if rep.suspect_meter is not None:
                line += f" (suspect meter {rep.suspect_meter})"
            out.append(line)
        for label, result in (("market before", self.market_before), ("market after", self.market_after)):
            if result is None:
                continue
            out.append(f"[{label}]")
            out.append(f"  generation MW = {' '.join(_fmt(v) for v in result.gen_output)}")
            out += _dispatch_lines(result, self.branch_names)
        if self.profit_per_h is not None:
            out.append(
                f"[profit] buy bus {self.market.buy_bus} before, sell bus {self.market.sell_bus} after, "
                f"{_fmt(self.market.quantity_mw)} MW -> {_fmt(self.profit_per_h)} $/h"
            )
        return "\n".join(out) + "\n"


def run_scenario(scn: Scenario) -> ScenarioReport:
    """Execute the full pipeline for one scenario."""
    net, meters, H, weights = _load_model(scn.network_path, scn.meters_path)
    with _stage("parse"):
        market_case = caseio.parse_market(scn.market.market_path, net) if scn.market is not None else None
    with _stage("measurements"):
        if isinstance(scn.measurements, FileSource):
            z = caseio.parse_measurements(scn.measurements.path, expected_count=H.m)
        else:
            x_true = np.asarray(scn.measurements.x_true, dtype=float)
            z = simulate_measurements(H, x_true, weights, seed=scn.measurements.seed)
    perturbation, atk = _build_attack_vector(scn.attack, H)
    z_observed = _attacked(z, perturbation)
    with _stage("estimate"):
        observed = wls_estimate(H, z_observed, weights)
        clean = wls_estimate(H, z, weights) if perturbation is not None else None
    with _stage("detect"):
        model = WlsModel.of(H, weights)
        detections = tuple(Detector.for_model(spec, model).report(observed) for spec in scn.detectors)
    del H, weights, model  # the model's gain factor and diag(Omega) too: the market needs none

    market_before = market_after = profit = None
    if scn.market is not None:
        with _stage("market"):
            market_before = market_after = solve_dc_opf(market_case)
            if perturbation is not None:
                perceived = perceived_case_from_attack(market_case, meters, clean.fitted, observed.fitted)
                market_after = solve_dc_opf(perceived)
            mk = scn.market
            profit = arbitrage_profit(market_before, market_after, mk.buy_bus, mk.sell_bus, mk.quantity_mw)

    return ScenarioReport(
        name=scn.name,
        state_buses=net.state_buses,
        branch_names=_branch_names(net) if scn.market is not None else (),
        measured=z_observed,
        observed=observed,
        clean=clean,
        detections=detections,
        attack_vector=atk,
        gross_error=scn.attack if isinstance(scn.attack, GrossErrorSpec) else None,
        market=scn.market,
        market_before=market_before,
        market_after=market_after,
        profit_per_h=profit,
    )


# -- Monte Carlo ----------------------------------------------------------------

@dataclass(frozen=True)
class DetectorRate:
    method: DetectionMethod
    confidence: float
    detections: int
    trials: int
    mean_statistic: float

    @property
    def detection_rate(self) -> float:
        return self.detections / self.trials


@dataclass(frozen=True)
class MonteCarloSummary:
    name: str
    trials: int
    base_seed: int
    rates: tuple[DetectorRate, ...]
    identified: int | None  # trials where all detectors fired and LNR named the bad meter

    @property
    def identification_accuracy(self) -> float | None:
        return None if self.identified is None else self.identified / self.trials

    def to_text(self) -> str:
        out = [f"monte carlo: {self.name} ({self.trials} trials, base seed {self.base_seed})"]
        for rate in self.rates:
            out.append(
                f"  {rate.method.value}: detection rate = {rate.detections}/{rate.trials}"
                f" = {_fmt(rate.detection_rate)}, mean statistic = {_fmt(rate.mean_statistic)}"
            )
        if self.identified is not None:
            out.append(
                f"  identification: {self.identified}/{self.trials}"
                f" = {_fmt(self.identification_accuracy)}"
            )
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        rows = []
        for rate in self.rates:
            stage = f"montecarlo.{rate.method.value}"
            rows.append(_row(stage, "detection_rate", "", rate.detection_rate))
            rows.append(_row(stage, "detections", "", rate.detections))
            rows.append(_row(stage, "mean_statistic", "", rate.mean_statistic))
        rows.append(_row("montecarlo", "trials", "", self.trials))
        if self.identified is not None:
            rows.append(
                _row("montecarlo", "identification_accuracy", "", self.identification_accuracy)
            )
        return _csv(rows)


def run_monte_carlo(scn: Scenario, trials: int, base_seed: int) -> MonteCarloSummary:
    """Detection rates over independently seeded noise realizations.

    The scenario must use a simulated measurement source; its own seed is
    ignored and trial t draws noise from a generator seeded by
    (base_seed, t), so two runs with equal base seeds see identical noise
    regardless of the attack applied. Trials are estimated and judged a
    block at a time, with each detector's threshold computed once per run.
    The stages run in ``run_scenario``'s order, which tags a fault alike.
    """
    if trials < 1:
        raise ValidationError(f"trials {trials} must be >= 1")
    if base_seed < 0:
        raise ValidationError(f"base seed {base_seed} must be >= 0")
    if not isinstance(scn.measurements, SimulateSource):
        raise ValidationError("monte carlo needs a scenario with simulated measurements")

    _, _, H, weights = _load_model(scn.network_path, scn.meters_path)
    with _stage("measurements"):
        noiseless = _true_flows(H, scn.measurements.x_true)
    perturbation, _ = _build_attack_vector(scn.attack, H)
    model = WlsModel.of(H, weights)
    target_meter = scn.attack.meter if isinstance(scn.attack, GrossErrorSpec) else None

    detectors = []  # built after the first block's fit, as run_scenario detects after it estimates
    counts = [0] * len(scn.detectors)
    stat_sums = [0.0] * len(scn.detectors)
    identified = 0 if target_meter is not None else None
    block = max(1, MC_BLOCK_ELEMENTS // H.m)
    for first in range(0, trials, block):
        noise = np.empty((min(block, trials - first), H.m))
        for trial, row in enumerate(noise, start=first):
            np.random.default_rng([base_seed, trial]).standard_normal(out=row)
        z = _attacked(noiseless + noise * model.sigmas, perturbation)
        with _stage("estimate"):
            estimates = model.fit(z)
        with _stage("detect"):
            detectors = detectors or [Detector.for_model(spec, model) for spec in scn.detectors]
        all_fired = np.ones(len(noise), dtype=bool)
        suspects = None  # of the last LNR detector; without one nothing is identified
        for d, detector in enumerate(detectors):
            statistic, suspect = detector.statistics(estimates)
            fired = statistic > detector.threshold
            counts[d] += int(np.count_nonzero(fired))
            for value in statistic.tolist():  # one at a time in trial order, as a per-trial loop adds
                stat_sums[d] += value
            all_fired &= fired
            if suspect is not None:
                suspects = suspect
        if identified is not None and suspects is not None:
            identified += int(np.count_nonzero(all_fired & (suspects == target_meter)))

    rates = tuple(
        DetectorRate(
            method=spec.method,
            confidence=spec.confidence,
            detections=counts[d],
            trials=trials,
            mean_statistic=stat_sums[d] / trials,
        )
        for d, spec in enumerate(scn.detectors)
    )
    return MonteCarloSummary(
        name=scn.name, trials=trials, base_seed=base_seed, rates=rates, identified=identified
    )
