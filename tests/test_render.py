"""Every report renders a column at a time. Here its bytes are judged against the row-based
renderers kept verbatim below, which formed one (stage, quantity, index, value) tuple and one
``_fmt`` call per value: on the bundled cases, on the 30-bus grid of ``test_golden.py``, on a
gridgen grid with a market, on Monte Carlo summaries, on ``attack_report`` and
``dispatch_report``, and on seeded synthetic reports whose every printed vector holds values
that print as a signed zero, values that round at the sixth decimal and values near the ends
of the float range."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CASES_5BUS
from fdilab import caseio, scenario
from fdilab.attack import AttackVector
from fdilab.market import solve_dc_opf
from fdilab.scenario import (
    MarketSpec,
    RandomAttackSpec,
    TargetedAttackSpec,
    attack_report,
    dispatch_report,
    parse_scenario,
    run_monte_carlo,
    run_scenario,
)
from test_golden import write_grid_scenarios

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gridgen  # noqa: E402


# -- the reference: row-based renderers, kept verbatim

def _fmt(value) -> str:
    """Six decimals, with no sign on a zero: the sign of a round-off residue is BLAS summation order."""
    text = f"{float(value):.6f}"
    return "0.000000" if text == "-0.000000" else text


def _row(stage: str, quantity: str, index, value) -> tuple[str, str, str, str]:
    return (stage, quantity, str(index), _fmt(value))


def _csv(rows) -> str:
    """The CSV report: the fixed header, then one line per (stage, quantity, index, value) row."""
    return "\n".join(["stage,quantity,index,value", *(",".join(row) for row in rows)]) + "\n"


def _branch_names(ends: np.ndarray) -> tuple[str, ...]:
    return tuple(f"{a}-{b}" for a, b in ends.tolist())


def _dispatch_rows(stage, result, names) -> list:
    """CSV rows of one dispatch: generation, branch flows, LMPs and cost."""
    return [
        *(_row(stage, "gen_mw", g, mw) for g, mw in enumerate(result.gen_output)),
        *(_row(stage, "flow_mw", names[b], flow) for b, flow in enumerate(result.flows)),
        *(_row(stage, "lmp", bus, price) for bus, price in result.lmp.items()),
        _row(stage, "objective_per_h", "", result.objective),
    ]


def _dispatch_lines(result, names) -> list[str]:
    """Text lines of one dispatch after its generation: LMPs, binding lines and cost."""
    out = [f"  lmp(bus {bus}) = {_fmt(price)} $/MWh" for bus, price in result.lmp.items()]
    if result.binding_lines:
        out.append(f"  binding lines: {', '.join(names[b] for b in result.binding_lines)}")
    out.append(f"  cost = {_fmt(result.objective)} $/h")
    return out


def reference_csv_rows(self) -> list[tuple[str, str, str, str]]:
    rows: list[tuple[str, str, str, str]] = []
    buses, names = self.state_buses.tolist(), _branch_names(self.branch_ends)
    for k, bus in enumerate(buses):
        rows.append(_row("estimation", "state_rad", bus, self.observed.state[k]))
    for i in range(len(self.measured)):
        rows.append(_row("estimation", "measured_pu", i, self.measured[i]))
        rows.append(_row("estimation", "fitted_pu", i, self.observed.fitted[i]))
        rows.append(_row("estimation", "residual_pu", i, self.observed.residual[i]))
    rows.append(_row("estimation", "objective", "", self.observed.objective))
    rows.append(_row("estimation", "weighted_residual_norm", "", np.sqrt(self.observed.objective)))
    if self.clean is not None:
        for k, bus in enumerate(buses):
            rows.append(_row("estimation_clean", "state_rad", bus, self.clean.state[k]))
        rows.append(_row("estimation_clean", "objective", "", self.clean.objective))
    if self.attack_vector is not None:
        for k, bus in enumerate(buses):
            rows.append(_row("attack", "c_rad", bus, self.attack_vector.c[k]))
        for i in range(len(self.attack_vector.a)):
            rows.append(_row("attack", "a_pu", i, self.attack_vector.a[i]))
        for i in self.attack_vector.support:
            rows.append(_row("attack", "support", i, 1.0))
    if self.gross_error is not None:
        rows.append(_row("attack", "gross_error_pu", self.gross_error.meter, self.gross_error.magnitude_pu))
    for rep in self.detections:
        stage = f"detection.{rep.method.value}"
        rows.append(_row(stage, "statistic", "", rep.statistic))
        rows.append(_row(stage, "threshold", "", rep.threshold))
        rows.append(_row(stage, "confidence", "", rep.confidence))
        rows.append(_row(stage, "detected", "", 1.0 if rep.bad_data_detected else 0.0))
        if rep.suspect_meter is not None:
            rows.append(_row(stage, "suspect_meter", rep.suspect_meter, 1.0))
    for label, result in (("market.before", self.market_before), ("market.after", self.market_after)):
        if result is None:
            continue
        rows.extend(_dispatch_rows(label, result, names))
        for b in result.binding_lines:
            rows.append(_row(label, "binding", names[b], 1.0))
    if self.profit_per_h is not None:
        rows.append(_row("market", "profit_per_h", "", self.profit_per_h))
    return rows


def reference_text(self) -> str:
    out = [f"scenario: {self.name}"]
    out.append("[estimation]")
    buses = self.state_buses.tolist()
    for k, bus in enumerate(buses):
        out.append(f"  angle(bus {bus}) = {_fmt(self.observed.state[k])} rad")
    out.append(f"  objective J = {_fmt(self.observed.objective)}")
    out.append(f"  weighted residual norm = {_fmt(np.sqrt(self.observed.objective))}")
    if self.clean is not None:
        shift = self.observed.state - self.clean.state
        out.append("[attack effect]")
        for k, bus in enumerate(buses):
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
    names = _branch_names(self.branch_ends)
    for label, result in (("market before", self.market_before), ("market after", self.market_after)):
        if result is None:
            continue
        out.append(f"[{label}]")
        out.append(f"  generation MW = {' '.join(_fmt(v) for v in result.gen_output)}")
        out += _dispatch_lines(result, names)
    if self.profit_per_h is not None:
        out.append(
            f"[profit] buy bus {self.market.buy_bus} before, sell bus {self.market.sell_bus} after, "
            f"{_fmt(self.market.quantity_mw)} MW -> {_fmt(self.profit_per_h)} $/h"
        )
    return "\n".join(out) + "\n"


def reference_mc_text(self) -> str:
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


def reference_mc_csv(self) -> str:
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


def reference_attack_report(network_path, meters_path, spec):
    _, _, H, _ = scenario._load_model(network_path, meters_path)
    _, atk = scenario._build_attack_vector(spec, H)
    echo = {"c": atk.c.tolist(), "a": atk.a.tolist(), "support": list(atk.support)}
    out = ["[attack vector]", f"  support = {echo['support']}"]
    out += [f"  c(bus {bus}) = {_fmt(c)} rad" for bus, c in zip(H.state_buses, atk.c)]
    out += [f"  a[{i}] = {_fmt(a)} pu" for i, a in enumerate(atk.a)]
    return "\n".join(out) + "\n", json.dumps(echo, indent=2) + "\n"


def reference_dispatch_report(network_path, market_path):
    net = caseio.parse_network(network_path)
    case = caseio.parse_market(market_path, net)
    result = solve_dc_opf(case)
    names = _branch_names(np.array(net.buses)[net.ends])
    out = ["[dispatch]"]
    for g, gen in enumerate(case.generators):
        out.append(f"  gen {g} (bus {gen.bus}) = {_fmt(result.gen_output[g])} MW")
    for b, flow in enumerate(result.flows):
        out.append(f"  flow {names[b]} = {_fmt(flow)} MW")
    out += _dispatch_lines(result, names)
    return "\n".join(out) + "\n", _csv(_dispatch_rows("dispatch", result, names))


# -- the comparisons

def assert_renders_as_reference(report):
    assert report.to_text() == reference_text(report)
    rows = reference_csv_rows(report)
    assert report.to_csv() == _csv(rows)
    assert report.csv_rows() == rows


BUNDLED = ("case1.json", "case2.json", "case3.json", "profit.json", "mc_clean.json")


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_reports_render_as_the_reference(name):
    assert_renders_as_reference(run_scenario(parse_scenario(CASES_5BUS / name)))


@pytest.fixture(scope="module")
def grid30(tmp_path_factory):
    return write_grid_scenarios(tmp_path_factory.mktemp("grid30"))


@pytest.mark.parametrize("kind", ("estimate", "detect", "gross", "random", "targeted"))
@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_grid_reports_render_as_the_reference(kind, grid30):
    assert_renders_as_reference(run_scenario(parse_scenario(grid30[kind])))


@pytest.fixture(scope="module")
def market_grid(tmp_path_factory):
    """A 40-bus gridgen grid with its market, and a detect scenario with a market leg on it."""
    directory = tmp_path_factory.mktemp("grid40")
    grid = gridgen.make_grid(3, gridgen.GridParams(buses=40, meters_per_state=1.8))
    paths = gridgen.write_grid(grid, directory)
    buses = [b for b in grid.network["buses"] if b != grid.network["slack"]]
    paths["scenario"] = directory / "detect-market.json"
    paths["scenario"].write_text(json.dumps({
        "name": "grid40-detect-market", "network": "network.json", "meters": "meters.json",
        "measurements": {"simulate": {"x_true": grid.theta_ref.tolist(), "seed": 3}},
        "detectors": [{"method": "chi_square"}, {"method": "lnr"}],
        "market": {"file": "market.json", "buy_bus": buses[0], "sell_bus": buses[-1]},
    }))
    return paths


@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_a_market_report_renders_as_the_reference(market_grid):
    report = run_scenario(parse_scenario(market_grid["scenario"]))
    assert report.market_before is not None
    assert_renders_as_reference(report)


def test_monte_carlo_summaries_render_as_the_reference(tmp_path):
    doc = json.loads((CASES_5BUS / "mc_clean.json").read_text())
    doc.update(network=str(CASES_5BUS / "network.json"), meters=str(CASES_5BUS / "meters.json"),
               attack={"type": "gross_error", "meter": 2, "magnitude_pu": 0.05})
    gross = tmp_path / "mc_gross.json"
    gross.write_text(json.dumps(doc))
    for path in CASES_5BUS / "mc_clean.json", gross:
        summary = run_monte_carlo(parse_scenario(path), trials=300, base_seed=4)
        assert summary.to_text() == reference_mc_text(summary)
        assert summary.to_csv() == reference_mc_csv(summary)


@pytest.mark.parametrize("spec", [RandomAttackSpec((0, 2, 3), 7), RandomAttackSpec((1, 4), 2, 1e-7),
                                  TargetedAttackSpec(((3, 0.03),)), TargetedAttackSpec(((2, -4e-7),))])
def test_attack_reports_render_as_the_reference(spec):
    paths = CASES_5BUS / "network.json", CASES_5BUS / "meters.json"
    text, render = attack_report(*paths, spec)
    assert (text, render()) == reference_attack_report(*paths, spec)


@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_grid_attack_report_renders_as_the_reference(grid30):
    paths = grid30["estimate"].parent / "network.json", grid30["estimate"].parent / "meters.json"
    spec = TargetedAttackSpec(((parse_scenario(grid30["targeted"]).attack.pinned[0][0], 0.05),))
    text, render = attack_report(*paths, spec)
    assert (text, render()) == reference_attack_report(*paths, spec)


@pytest.mark.parametrize("network", ("network.json", "network_limit34.json"))
def test_bundled_dispatch_reports_render_as_the_reference(network):
    text, render = dispatch_report(CASES_5BUS / network, CASES_5BUS / "market.json")
    assert (text, render()) == reference_dispatch_report(CASES_5BUS / network, CASES_5BUS / "market.json")


def test_grid_dispatch_report_renders_as_the_reference(market_grid):
    text, render = dispatch_report(market_grid["network"], market_grid["market"])
    assert (text, render()) == reference_dispatch_report(market_grid["network"], market_grid["market"])


# -- seeded synthetic reports

# values that print as a signed zero, values that round at the sixth decimal, and the float range's ends
SPECIAL = (4e-7, -4e-7, -0.0, 0.0, 5e-7, -5e-7, 0.1234565, -0.1234565, 1e300, -1e-300, 1e-300, -1e300)


def vector(rng, size: int) -> np.ndarray:
    """Every special value and ``size - len(SPECIAL)`` random ones, in a random order."""
    scale = rng.choice([1e-6, 0.1, 1e3])
    return rng.permutation(np.concatenate([SPECIAL, rng.normal(scale=scale, size=size - len(SPECIAL))]))


def dispatch(rng, base, buses, branches: int):
    return dataclasses.replace(
        base, gen_output=vector(rng, int(rng.integers(12, 20))), flows=vector(rng, branches),
        lmp=dict(zip(buses, vector(rng, len(buses)).tolist())), objective=float(rng.choice(SPECIAL)),
        binding_lines=tuple(sorted(rng.choice(branches, int(rng.integers(0, 4)), replace=False).tolist())),
    )


def synthetic_report(seed: int):
    """The profit scenario's report with every printed vector, and its sizes, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    base = run_scenario(parse_scenario(CASES_5BUS / "profit.json"))
    n, m, branches = (int(k) for k in rng.integers(12, 40, size=3))
    ids = rng.permutation(np.arange(1, n + 2))
    buses = sorted(ids.tolist())
    state_buses = ids[:n].copy()
    branch_ends = np.stack([rng.choice(ids, branches), rng.choice(ids, branches)], axis=1)
    observed = dataclasses.replace(base.observed, state=vector(rng, n), fitted=vector(rng, m),
                                   residual=vector(rng, m), objective=float(rng.choice([0.1234565, 1e300, 5e-7])))
    # a zero clean state prints the special values in the estimate shift too
    clean = dataclasses.replace(base.clean, state=np.zeros(n) if seed % 2 else vector(rng, n),
                                objective=float(rng.choice(SPECIAL)))
    support = tuple(sorted(rng.choice(m, int(rng.integers(1, m)), replace=False).tolist()))
    attacked = seed % 3 != 2
    detections = tuple(dataclasses.replace(rep, statistic=float(rng.choice(SPECIAL)),
                                           threshold=float(rng.choice(SPECIAL)),
                                           suspect_meter=int(rng.integers(m)) if seed % 2 else None)
                       for rep in base.detections)
    before = dispatch(rng, base.market_before, buses, branches)
    market = seed % 4 != 3
    return dataclasses.replace(
        base, name=f"synthetic-{seed}", state_buses=state_buses, branch_ends=branch_ends,
        measured=vector(rng, m), observed=observed, clean=clean if attacked else None,
        attack_vector=AttackVector(a=vector(rng, m), c=vector(rng, n), support=support) if attacked else None,
        gross_error=None if attacked else scenario.GrossErrorSpec(int(rng.integers(m)), -4e-7),
        detections=detections,
        market=MarketSpec(Path("market.json"), buses[0], buses[-1], float(rng.choice(SPECIAL))) if market else None,
        market_before=before if market else None,
        market_after=(before if seed % 5 == 0 else dispatch(rng, base.market_after, buses, branches)) if market else None,
        profit_per_h=float(rng.choice(SPECIAL)) if market else None,
    )


@pytest.mark.parametrize("seed", range(12))
def test_synthetic_reports_render_as_the_reference(seed):
    report = synthetic_report(seed)
    text = report.to_text()
    assert "-0.000000" not in text and "0.000000 rad" in text and "0.123456 rad" in text  # 0.1234565 is below its decimal
    assert_renders_as_reference(report)
