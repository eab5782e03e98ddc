"""Scenario engine: end-to-end pipelines and Monte Carlo harness.

A scenario file names a network, a meter set, a measurement source (a
recorded file or a seeded simulation from a true state), an optional
attack, the detectors to run and an optional market leg. ``run_scenario``
executes the pipeline

    measurements -> attack -> estimate -> detect -> dispatch/profit

and returns its report. ``run_monte_carlo`` repeats the pipeline over
independently seeded noise realizations, a block of trials at a time, and
aggregates detection rates. ``attack_report`` and ``dispatch_report`` run
an attack alone and a dispatch alone.

Every report is rendered here, as text and as the file the CLI writes to
``--out``: the attack vector as JSON, ``{"c": [...], "a": [...], "support":
[...]}``, or else a CSV with one row per (stage, quantity, index, value).
Each number has six decimals, so the renderings are byte-for-byte
deterministic given identical inputs and seeds. A report formats each vector
it prints once, a column at a time (``_column``), and forms each text or CSV
line of it with one f-string over those columns; a scalar goes through
``_fmt``. Text and CSV stay two walks, since they print different fields.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import caseio
from .attack import AttackVector, _index, random_constrained_attack, targeted_attack
from .caseio import REQUIRED, _choice, _decimal, _integer, _items, _list, _number, _object, _optional, _text, fields
from .detection import DetectionMethod, DetectionReport, Detector, DetectorSpec
from .errors import FdiLabError, ParseError, ValidationError
from .estimation import EstimationResult, WlsModel, _true_flows, simulate_measurements, wls_estimate
from .market import DispatchResult, arbitrage_profit, perceived_case_from_attack, solve_dc_opf
from .network import MeasurementMatrix, MeterConfig, NetworkModel, WeightModel, build_h_matrix


# A Monte Carlo block holds about this many measurement values (trials x meters),
# so its arrays stay a few megabytes on any grid, whatever the trial count.
MC_BLOCK_ELEMENTS = 1 << 16


def _fmt(value) -> str:
    """Six decimals, with no sign on a zero: the sign of a round-off residue is BLAS summation order."""
    text = f"{float(value):.6f}"
    return "0.000000" if text == "-0.000000" else text


def _column(values) -> list[str]:
    """``_fmt`` of each value of a vector, in one pass over its Python floats; a second pass
    drops the sign of a zero, and runs only when one prints."""
    texts = [f"{v:.6f}" for v in np.asarray(values, dtype=float).tolist()]
    if "-0.000000" in texts:
        texts = ["0.000000" if text == "-0.000000" else text for text in texts]
    return texts


# -- CSV rendering ---------------------------------------------------------------

def _line(stage: str, quantity: str, index, value) -> str:
    """The CSV line of one scalar."""
    return f"{stage},{quantity},{index},{_fmt(value)}"


def _lines(stage: str, quantity: str, indices, values) -> list[str]:
    """The CSV lines of a vector, one per (index, value) pair."""
    return [f"{stage},{quantity},{i},{v}" for i, v in zip(indices, _column(values))]


def _csv(lines) -> str:
    """The CSV report: the fixed header, then one line per (stage, quantity, index, value) row."""
    return "\n".join(["stage,quantity,index,value", *lines]) + "\n"


def _branch_names(ends: np.ndarray) -> tuple[str, ...]:
    """The "from-to" name of each branch of ``NetworkModel.branch_bus_ends``, as reports print it."""
    return tuple(f"{a}-{b}" for a, b in ends.tolist())


def _dispatch_rows(stage: str, result: DispatchResult, names: tuple[str, ...]) -> list[str]:
    """CSV lines of one dispatch: generation, branch flows, LMPs and cost."""
    return [
        *_lines(stage, "gen_mw", range(len(result.gen_output)), result.gen_output),
        *_lines(stage, "flow_mw", names, result.flows),
        *_lines(stage, "lmp", result.lmp, list(result.lmp.values())),
        _line(stage, "objective_per_h", "", result.objective),
    ]


def _dispatch_lines(result: DispatchResult, ends: np.ndarray) -> list[str]:
    """Text lines of one dispatch after its generation: LMPs, binding lines, named from the
    branch ends ``ends``, and cost."""
    out = [f"  lmp(bus {bus}) = {v} $/MWh" for bus, v in zip(result.lmp, _column(list(result.lmp.values())))]
    if result.binding_lines:
        out.append(f"  binding lines: {', '.join(_branch_names(ends[list(result.binding_lines)]))}")
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


def _pinned(value) -> tuple[tuple[int, float], ...]:
    """The (bus id, shift) pairs of a targeted attack's map of bus ids to shifts."""
    if not _object(value):
        raise ValueError("targeted attack needs pinned entries")
    return tuple((_decimal(bus), _number(shift)) for bus, shift in value.items())


_METHODS = {"chi_square": DetectionMethod.CHI_SQUARE, "lnr": DetectionMethod.LNR,
            "largest_normalized_residual": DetectionMethod.LNR}

_SCENARIO = {"name": (_text, REQUIRED), "network": (_text, REQUIRED), "meters": (_text, REQUIRED),
             "measurements": (_object, REQUIRED), "attack": (_object, {}),
             "detectors": (_list, ({"method": "chi_square"}, {"method": "lnr"})), "market": (_optional(_object), None)}
_SOURCE = {"file": (_text, None), "simulate": (_object, None)}
_SIMULATE = {"x_true": (_items(_number), REQUIRED), "seed": (_integer, REQUIRED)}
# attack type -> (its record's table, the spec its values make by position); a record without a type is no attack
_ATTACKS = {
    "none": ({"type": (_text, "none")}, lambda: None),
    "random": ({"type": (_text, REQUIRED), "support": (_items(_integer), REQUIRED), "seed": (_integer, REQUIRED),
                "magnitude": (_number, 0.1)}, RandomAttackSpec),
    "targeted": ({"type": (_text, REQUIRED), "pinned": (_pinned, REQUIRED)}, TargetedAttackSpec),
    "gross_error": ({"type": (_text, REQUIRED), "meter": (_integer, REQUIRED), "magnitude_pu": (_number, REQUIRED)},
                    GrossErrorSpec),
}
_ATTACK_TYPE = {"type": (_choice(_ATTACKS, "attack type"), REQUIRED)}
_DETECTOR = {"method": (_choice(_METHODS, "method"), REQUIRED), "confidence": (_number, 0.99)}
_MARKET = {"file": (_text, REQUIRED), "buy_bus": (_integer, REQUIRED), "sell_bus": (_integer, REQUIRED),
           "quantity_mw": (_number, 1.0)}


def parse_scenario(path) -> Scenario:
    """Read a scenario file; relative paths resolve against its directory."""
    path = Path(path)
    name, network, meters, meas, attack, detectors, market = fields(caseio.load_json(path), _SCENARIO, path)
    resolve = path.parent.joinpath  # which keeps an absolute path as it is
    sources = len(meas.keys() & _SOURCE.keys())
    if sources != 1:
        both = ", not both" if sources else ""
        raise ParseError(path, "measurements", f"expected 'file' or 'simulate'{both}")
    file, sim = fields(meas, _SOURCE, path, "measurements")
    if sim is None:
        source = FileSource(path=resolve(file))
    else:
        source = SimulateSource(*fields(sim, _SIMULATE, path, "measurements.simulate"))

    ((table, spec),) = fields({"type": attack.get("type", "none")}, _ATTACK_TYPE, path, "attack")  # picks the table
    _, *params = fields(attack, table, path, "attack")
    if market is not None:
        file, *leg = fields(market, _MARKET, path, "market")
        market = MarketSpec(resolve(file), *leg)
    return Scenario(
        name=name,
        network_path=resolve(network),
        meters_path=resolve(meters),
        measurements=source,
        attack=spec(*params),
        detectors=tuple(DetectorSpec(*fields(rec, _DETECTOR, path, "detectors", i)) for i, rec in enumerate(detectors)),
        market=market,
    )


# -- pipeline ------------------------------------------------------------------

def _load_model(
    network_path, meters_path
) -> tuple[NetworkModel, MeterConfig, MeasurementMatrix, WeightModel]:
    """Parse a network and its meters, then build H and read the meter set's weights: the front of every
    pipeline. H, and so its model and gain factor, is built per call."""
    with _stage("parse"):
        net = caseio.parse_network(network_path)
        meters = caseio.parse_meters(meters_path, net)
    with _stage("model"):
        return net, meters, build_h_matrix(net, meters), meters.weight_model


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
        meter = _index(spec.meter, "gross error meter")
        if not 0 <= meter < H.m:
            raise ValidationError(f"gross error meter {meter} out of range 0..{H.m - 1}")
        a = np.zeros(H.m)
        a[meter] = spec.magnitude_pu
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
    """Full record of one pipeline run; renders to text or CSV.

    Of the network it keeps only what the renderers print, as read-only int
    arrays that every report of the network shares: the state buses and the
    branch ends. A kept report holds no Branch objects and no branch names;
    ``branch_names`` forms them when a market section of the CSV renders, and
    the text names only the binding lines.
    """

    name: str
    state_buses: np.ndarray                 # bus of each state entry, in column order
    branch_ends: np.ndarray                 # (from, to) bus of each branch
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

    @property
    def branch_names(self) -> tuple[str, ...]:
        """The "from-to" name of each branch."""
        return _branch_names(self.branch_ends)

    def _dispatches(self) -> tuple[tuple[str, DispatchResult], ...]:
        """The (label, result) of each dispatch that ran, before then after."""
        return tuple((label, result) for label, result in (("before", self.market_before),
                                                           ("after", self.market_after)) if result is not None)

    def csv_rows(self) -> list[tuple[str, ...]]:
        """The (stage, quantity, index, value) rows of ``to_csv``, read back off its lines."""
        return [tuple(line.split(",")) for line in self.to_csv().splitlines()[1:]]

    def to_csv(self) -> str:
        obs, buses = self.observed, self.state_buses.tolist()
        lines = _lines("estimation", "state_rad", buses, obs.state)
        lines += [f"estimation,measured_pu,{i},{z}\nestimation,fitted_pu,{i},{f}\nestimation,residual_pu,{i},{r}"
                  for i, z, f, r in zip(range(len(self.measured)), _column(self.measured), _column(obs.fitted),
                                        _column(obs.residual))]
        lines.append(_line("estimation", "objective", "", obs.objective))
        lines.append(_line("estimation", "weighted_residual_norm", "", np.sqrt(obs.objective)))
        if self.clean is not None:
            lines += _lines("estimation_clean", "state_rad", buses, self.clean.state)
            lines.append(_line("estimation_clean", "objective", "", self.clean.objective))
        if (atk := self.attack_vector) is not None:
            lines += _lines("attack", "c_rad", buses, atk.c)
            lines += _lines("attack", "a_pu", range(len(atk.a)), atk.a)
            lines += [f"attack,support,{i},1.000000" for i in atk.support]
        if self.gross_error is not None:
            lines.append(_line("attack", "gross_error_pu", self.gross_error.meter, self.gross_error.magnitude_pu))
        for rep in self.detections:
            stage = f"detection.{rep.method.value}"
            lines.append(_line(stage, "statistic", "", rep.statistic))
            lines.append(_line(stage, "threshold", "", rep.threshold))
            lines.append(_line(stage, "confidence", "", rep.confidence))
            lines.append(_line(stage, "detected", "", 1.0 if rep.bad_data_detected else 0.0))
            if rep.suspect_meter is not None:
                lines.append(f"{stage},suspect_meter,{rep.suspect_meter},1.000000")
        dispatches = self._dispatches()
        names = self.branch_names if dispatches else ()
        for label, result in dispatches:
            lines += _dispatch_rows(f"market.{label}", result, names)
            lines += [f"market.{label},binding,{names[b]},1.000000" for b in result.binding_lines]
        if self.profit_per_h is not None:
            lines.append(_line("market", "profit_per_h", "", self.profit_per_h))
        return _csv(lines)

    def to_text(self) -> str:
        buses = self.state_buses.tolist()
        out = [f"scenario: {self.name}", "[estimation]"]
        out += [f"  angle(bus {bus}) = {v} rad" for bus, v in zip(buses, _column(self.observed.state))]
        out.append(f"  objective J = {_fmt(self.observed.objective)}")
        out.append(f"  weighted residual norm = {_fmt(np.sqrt(self.observed.objective))}")
        if self.clean is not None:
            out.append("[attack effect]")
            shift = _column(self.observed.state - self.clean.state)
            out += [f"  estimate shift(bus {bus}) = {v} rad" for bus, v in zip(buses, shift)]
        if self.attack_vector is not None:
            support = list(self.attack_vector.support)
            out += ["[attack]", f"  support = {support}"]
            out += [f"  a[{i}] = {v} pu" for i, v in zip(support, _column(self.attack_vector.a[support]))]
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
        for label, result in self._dispatches():
            out.append(f"[market {label}]")
            out.append(f"  generation MW = {' '.join(_column(result.gen_output))}")
            out += _dispatch_lines(result, self.branch_ends)
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
            z = caseio.parse_measurements(scn.measurements.path)
            if len(z) != H.m:
                raise ValidationError(f"{scn.measurements.path}: expected {H.m} measurement values, got {len(z)}")
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
    del H, weights, model  # the model's gain factor too: the market needs none

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
        state_buses=net.state_bus_ids,
        branch_ends=net.branch_bus_ends,
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


def attack_report(network_path, meters_path, spec: RandomAttackSpec | TargetedAttackSpec):
    """The text of the attack vector that ``spec`` makes on a network's meters, and the renderer of its JSON echo."""
    _, _, H, _ = _load_model(network_path, meters_path)
    _, atk = _build_attack_vector(spec, H)
    echo = {"c": atk.c.tolist(), "a": atk.a.tolist(), "support": list(atk.support)}
    out = ["[attack vector]", f"  support = {echo['support']}"]
    out += [f"  c(bus {bus}) = {c} rad" for bus, c in zip(H.state_buses, _column(atk.c))]
    out += [f"  a[{i}] = {a} pu" for i, a in enumerate(_column(atk.a))]
    return "\n".join(out) + "\n", lambda: json.dumps(echo, indent=2) + "\n"


def dispatch_report(network_path, market_path):
    """The text of a market's least-cost dispatch on a network, and the renderer of its CSV."""
    with _stage("parse"):
        net = caseio.parse_network(network_path)
        case = caseio.parse_market(market_path, net)
    with _stage("market"):
        result = solve_dc_opf(case)
    names = _branch_names(net.branch_bus_ends)
    out = ["[dispatch]"]
    out += [f"  gen {g} (bus {gen.bus}) = {mw} MW"
            for g, (gen, mw) in enumerate(zip(case.generators, _column(result.gen_output)))]
    out += [f"  flow {name} = {flow} MW" for name, flow in zip(names, _column(result.flows))]
    out += _dispatch_lines(result, net.branch_bus_ends)
    return "\n".join(out) + "\n", lambda: _csv(_dispatch_rows("dispatch", result, names))


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
    identified: int | None  # trials all detectors fired and LNR named the bad meter; None without a gross error or LNR

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
        lines = []
        for rate in self.rates:
            stage = f"montecarlo.{rate.method.value}"
            lines.append(_line(stage, "detection_rate", "", rate.detection_rate))
            lines.append(_line(stage, "detections", "", rate.detections))
            lines.append(_line(stage, "mean_statistic", "", rate.mean_statistic))
        lines.append(_line("montecarlo", "trials", "", self.trials))
        if self.identified is not None:
            lines.append(_line("montecarlo", "identification_accuracy", "", self.identification_accuracy))
        return _csv(lines)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which NEP 19
# keeps fixed across numpy releases.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """The uint32 words of a non-negative int, low word first, as SeedSequence splits its entropy."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(const: int, mult: int, calls: int) -> np.ndarray:
    """The running constant of ``calls`` successive hashmix calls, as a (calls + 1, 1) uint32 column.

    It is formed in Python ints: two numpy scalars whose product wraps would
    raise a RuntimeWarning, and every wrapping product below is an array one.
    """
    consts = [const]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` with ``consts[j]`` and ``consts[j + 1]``, as row j."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ r >> 16


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, uint64)`` for each column e of ``entropy``, as
    the rows of a C-contiguous (trials, 4) array: PCG64 reads a row's memory as it lies.

    ``entropy`` is a (words, trials) uint32 array. SeedSequence makes one
    hashmix call per pool word a word is mixed into. Those calls hash the
    same word with successive constants, so they run as the rows of one array.
    """
    words, trials = entropy.shape
    consts = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 4 * max(0, words - 4))
    pool = _hashmix(np.vstack([entropy[:4], np.zeros((max(0, 4 - words), trials), np.uint32)]), consts[:5])
    used = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[used:used + 4]))
        used += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, consts[used:used + 5]))
        used += 4
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


@dataclass
class _Seeded:
    """A seed sequence (numpy's ``ISeedSequence``) whose state is ``words``: ``PCG64(_Seeded(words))`` seeds from them."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _noise_block(base_seed: int, first: int, out: np.ndarray) -> None:
    """Fill row k of ``out`` with ``default_rng([base_seed, first + k]).standard_normal(m)``, bit for bit.

    Creating one generator per trial costs far more than its draw, mostly in
    hashing the seed. Here the hash runs over the whole block in uint32 arrays,
    and numpy seeds each row's PCG64 from its hashed words. The block is hashed in
    parts that cross no multiple of 2**32, so in each part only the trial's low word varies.
    """
    # registered here, not at import: importing numpy.random costs every cold start
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_Seeded)
    base = _uint32_words(base_seed)
    start = 0
    while start < len(out):
        low, *high = _uint32_words(first + start)
        stop = min(len(out), start + (1 << 32) - low)
        entropy = np.array([*base, low, *high], dtype=np.uint32)[:, None].repeat(stop - start, axis=1)
        entropy[len(base)] += np.arange(stop - start, dtype=np.uint32)
        for words, row in zip(_pcg64_seeds(entropy), out[start:stop]):
            np.random.Generator(np.random.PCG64(_Seeded(words))).standard_normal(out=row)
        start = stop


def run_monte_carlo(scn: Scenario, trials: int, base_seed: int) -> MonteCarloSummary:
    """Detection rates over independently seeded noise realizations.

    The scenario must use a simulated measurement source; its own seed is
    ignored and trial t's noise has the bits of
    ``default_rng([base_seed, t]).standard_normal(m)``, so two runs with
    equal base seeds see identical noise regardless of the attack applied.
    Trials draw their noise (``_noise_block``), are estimated and are judged
    a block at a time, with each detector's threshold computed once per run.
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
    model = WlsModel(H, weights)
    target_meter = scn.attack.meter if isinstance(scn.attack, GrossErrorSpec) else None

    detectors = []  # built after the first block's fit, as run_scenario detects after it estimates
    counts = [0] * len(scn.detectors)
    stat_sums = [0.0] * len(scn.detectors)
    lnr = any(spec.method is DetectionMethod.LNR for spec in scn.detectors)
    identified = 0 if target_meter is not None and lnr else None  # only an LNR detector names a suspect
    block = max(1, MC_BLOCK_ELEMENTS // H.m)
    for first in range(0, trials, block):
        noise = np.empty((min(block, trials - first), H.m))
        _noise_block(base_seed, first, noise)
        z = _attacked(noiseless + noise * model.sigmas, perturbation)
        with _stage("estimate"):
            estimates = model.fit(z)
        with _stage("detect"):
            detectors = detectors or [Detector.for_model(spec, model) for spec in scn.detectors]
        all_fired = np.ones(len(noise), dtype=bool)
        suspects = None  # of the last LNR detector
        for d, detector in enumerate(detectors):
            statistic, suspect = detector.statistics(estimates)
            fired = statistic > detector.threshold
            counts[d] += int(np.count_nonzero(fired))
            for value in statistic.tolist():  # one at a time in trial order, as a per-trial loop adds
                stat_sums[d] += value
            all_fired &= fired
            if suspect is not None:
                suspects = suspect
        if identified is not None:
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
