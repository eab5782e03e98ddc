import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASES_5BUS
from fdilab import caseio
from fdilab.attack import targeted_attack
from fdilab.errors import DimensionMismatch, InfeasibleDispatch, UnknownBus, ValidationError
from fdilab.estimation import WeightModel, wls_estimate
from fdilab.market import (
    DispatchCase,
    Generator,
    Load,
    arbitrage_profit,
    perceived_case_from_attack,
    solve_dc_opf,
)
from fdilab.network import Branch, MeterConfig, NetworkModel, build_h_matrix
from test_observability import networks

MARKET_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def single_bus_case(price=10.0, pmax=100.0, demand=50.0):
    net = NetworkModel(buses=(1,), branches=(), slack=1)
    return DispatchCase(
        network=net,
        generators=(Generator(bus=1, price=price, p_max=pmax),),
        loads=(Load(bus=1, mw=demand),),
    )


def two_bus_case(limit=10.0, cheap=10.0, dear=50.0, demand=40.0):
    net = NetworkModel(
        buses=(1, 2), branches=(Branch(1, 2, 0.1, limit_mw=limit),), slack=1
    )
    return DispatchCase(
        network=net,
        generators=(
            Generator(bus=1, price=cheap, p_max=1000.0),
            Generator(bus=2, price=dear, p_max=1000.0),
        ),
        loads=(Load(bus=2, mw=demand),),
    )


def test_single_bus_dispatch():
    result = solve_dc_opf(single_bus_case())
    assert result.gen_output[0] == pytest.approx(50.0, abs=1e-9)
    assert result.lmp[1] == pytest.approx(10.0, abs=1e-9)
    assert result.objective == pytest.approx(500.0, abs=1e-6)


def test_two_bus_congestion_sets_import_price():
    result = solve_dc_opf(two_bus_case())
    # 10 MW arrives over the line, the local expensive unit serves the rest
    assert result.gen_output[0] == pytest.approx(10.0, abs=1e-7)
    assert result.gen_output[1] == pytest.approx(30.0, abs=1e-7)
    assert result.lmp[2] == pytest.approx(50.0, abs=1e-7)
    assert result.binding_lines == (0,)
    assert abs(result.flows[0]) == pytest.approx(10.0, abs=1e-6)


def test_two_bus_dual_against_finite_difference():
    base = solve_dc_opf(two_bus_case())
    bumped = solve_dc_opf(two_bus_case(demand=41.0))
    fd = bumped.objective - base.objective
    assert fd == pytest.approx(base.lmp[2], abs=1e-4)


def test_pre_attack_market_uniform_price(market5):
    result = solve_dc_opf(market5)
    for bus in (1, 2, 3, 4, 5):
        assert result.lmp[bus] == pytest.approx(15.0, abs=1e-6)
    np.testing.assert_allclose(result.gen_output, [250.0, 250.0, 0.0], atol=1e-6)
    assert result.objective == pytest.approx(6250.0, abs=1e-4)
    assert result.binding_lines == ()


def test_nodal_balance_and_cost_identity(market5):
    result = solve_dc_opf(market5)
    net = market5.network
    loads = market5.load_by_bus()
    for bus in net.buses:
        gen = sum(
            out for g, out in zip(market5.generators, result.gen_output) if g.bus == bus
        )
        outflow = sum(
            (1.0 if br.from_bus == bus else -1.0) * result.flows[i]
            for i, br in enumerate(net.branches)
            if bus in (br.from_bus, br.to_bus)
        )
        assert gen - loads[bus] - outflow == pytest.approx(0.0, abs=1e-6)
    cost = sum(g.price * out for g, out in zip(market5.generators, result.gen_output))
    assert cost == pytest.approx(result.objective, abs=1e-6)


def test_infeasible_by_capacity():
    with pytest.raises(InfeasibleDispatch):
        single_bus_case(pmax=10.0, demand=50.0)


def test_infeasible_by_line_limit():
    net = NetworkModel(buses=(1, 2), branches=(Branch(1, 2, 0.1, limit_mw=10.0),), slack=1)
    case = DispatchCase(
        network=net,
        generators=(Generator(bus=1, price=10.0, p_max=1000.0),),
        loads=(Load(bus=2, mw=100.0),),
    )
    with pytest.raises(InfeasibleDispatch):
        solve_dc_opf(case)


def test_generator_and_load_validation():
    with pytest.raises(ValidationError):
        Generator(bus=1, price=10.0, p_max=5.0, p_min=6.0)
    with pytest.raises(ValidationError):
        Generator(bus=1, price=-1.0, p_max=5.0)
    with pytest.raises(ValidationError):
        Load(bus=1, mw=-2.0)
    net = NetworkModel(buses=(1,), branches=(), slack=1)
    with pytest.raises(UnknownBus):
        DispatchCase(network=net, generators=(Generator(bus=7, price=1.0, p_max=1.0),), loads=())


# -- perceived case from an attack -------------------------------------------------

def test_zero_flow_delta_keeps_case(market5, meters5):
    flows = np.array([0.91, -0.16, 0.19, 0.21, 0.89, 0.09])
    perceived = perceived_case_from_attack(market5, meters5, flows, flows)
    assert perceived.load_by_bus() == market5.load_by_bus()


def test_perceived_case_needs_a_flow_per_meter(market5, meters5):
    flows = np.zeros(6)
    for before, after in ((flows[:5], flows[:5]), (flows, flows[:5])):  # both one meter short, or only after
        with pytest.raises(DimensionMismatch, match="^flow vectors must both be dimensioned to the meter set$"):
            perceived_case_from_attack(market5, meters5, before, after)


def test_single_branch_delta_moves_injections(market5, meters5):
    flows = np.zeros(6)
    bumped = flows.copy()
    bumped[4] += 0.6  # +60 MW on the branch from bus 3 to bus 4
    perceived = perceived_case_from_attack(market5, meters5, flows, bumped)
    loads0 = market5.load_by_bus()
    loads1 = perceived.load_by_bus()
    assert loads1[3] == pytest.approx(loads0[3] - 60.0, abs=1e-9)
    assert loads1[4] == pytest.approx(loads0[4] + 60.0, abs=1e-9)
    for bus in (1, 2, 5):
        assert loads1[bus] == pytest.approx(loads0[bus], abs=1e-9)
    assert sum(loads1.values()) == pytest.approx(sum(loads0.values()), abs=1e-9)


def test_reversed_duplicate_meter_leaves_perceived_loads_unchanged(net5_limited, meters5, z5):
    # the profit attack, read once through the shipped meters and once with a
    # second meter on branch 3-4 that reads it in the reverse direction
    market = caseio.parse_market(CASES_5BUS / "market.json", net5_limited)
    reversed_34 = dataclasses.replace(meters5.meters[4], orientation=-1)
    meters = MeterConfig(meters=(*meters5.meters, reversed_34))
    perceived = []
    for config, z in ((meters5, z5), (meters, np.append(z5, -z5[4]))):
        H, w = build_h_matrix(net5_limited, config), WeightModel(config.sigmas)
        atk = targeted_attack(H, {H.state_index(3): 0.03})
        clean, attacked = wls_estimate(H, z, w), wls_estimate(H, z + atk.a, w)
        perceived.append(perceived_case_from_attack(market, config, clean.fitted, attacked.fitted).load_by_bus())
    single, duplicated = perceived
    assert (single[3], single[4]) == pytest.approx((80.0, 100.0), abs=1e-9)
    assert duplicated == pytest.approx(single, abs=1e-9)


def test_profit_scenario_congestion(net5_limited, meters5, h5, z5, w5):
    market = DispatchCase(
        network=net5_limited,
        generators=(
            Generator(bus=1, price=10.0, p_max=250.0),
            Generator(bus=3, price=15.0, p_max=300.0),
            Generator(bus=5, price=30.0, p_max=500.0),
        ),
        loads=tuple(
            Load(bus=b, mw=mw) for b, mw in ((1, 100.0), (2, 100.0), (3, 200.0), (4, 40.0), (5, 60.0))
        ),
    )
    before = solve_dc_opf(market)
    assert before.binding_lines == ()

    atk = targeted_attack(h5, {h5.state_index(3): 0.03})
    clean = wls_estimate(h5, z5, w5)
    attacked = wls_estimate(h5, z5 + atk.a, w5)
    perceived = perceived_case_from_attack(market, meters5, clean.fitted, attacked.fitted)
    after = solve_dc_opf(perceived)

    assert after.binding_lines == (4,)  # the limited branch between buses 3 and 4
    assert abs(after.flows[4]) == pytest.approx(70.0, abs=1e-6)
    assert after.lmp[3] == pytest.approx(15.0, abs=1e-6)
    for bus in (2, 4, 5):
        assert after.lmp[bus] > 15.0
    assert after.lmp[4] == max(after.lmp.values())
    assert after.gen_output[2] > 0.0

    profit = arbitrage_profit(before, after, buy_bus=1, sell_bus=4, quantity=1.0)
    assert profit == pytest.approx(after.lmp[4] - 15.0, abs=1e-9)
    assert profit > 0


# -- arbitrage ---------------------------------------------------------------------

def test_arbitrage_zero_quantity(market5):
    result = solve_dc_opf(market5)
    assert arbitrage_profit(result, result, 1, 4, 0.0) == 0.0


def test_arbitrage_equal_prices(market5):
    result = solve_dc_opf(market5)
    assert arbitrage_profit(result, result, 1, 4, 25.0) == pytest.approx(0.0, abs=1e-6)


def test_arbitrage_from_published_spread():
    # one marginal MW bought at 15 and sold at 32.884615 clears 17.884615/h
    from fdilab.market import DispatchResult

    before = DispatchResult(
        gen_output=np.zeros(1), flows=np.zeros(0), lmp={1: 15.0, 4: 15.0},
        objective=0.0, binding_lines=(),
    )
    after = DispatchResult(
        gen_output=np.zeros(1), flows=np.zeros(0), lmp={1: 22.572115, 4: 32.884615},
        objective=0.0, binding_lines=(),
    )
    assert arbitrage_profit(before, after, 1, 4, 1.0) == pytest.approx(17.884615, abs=1e-6)


def test_arbitrage_unknown_bus(market5):
    result = solve_dc_opf(market5)
    with pytest.raises(UnknownBus):
        arbitrage_profit(result, result, 1, 9, 1.0)
    with pytest.raises(ValidationError):
        arbitrage_profit(result, result, 1, 4, -1.0)


# -- the LP handed to linprog ------------------------------------------------------

def reference_lp(case):
    """linprog's arguments as the per-bus scan of every generator and branch built them.

    This is the assembly ``solve_dc_opf`` used before its one pass over the
    branches, kept verbatim as the reference the LP is pinned to.
    """
    net = case.network
    gens = case.generators
    ng = len(gens)
    state = net.state_buses
    thcol = {b: ng + k for k, b in enumerate(state)}
    nv = ng + len(state)

    cost = np.zeros(nv)
    cost[:ng] = [g.price for g in gens]

    loads = case.load_by_bus()
    A_eq = np.zeros((len(net.buses), nv))
    b_eq = np.zeros(len(net.buses))
    for row, bus in enumerate(net.buses):
        b_eq[row] = loads[bus]
        for gi, g in enumerate(gens):
            if g.bus == bus:
                A_eq[row, gi] += 1.0
        for br in net.branches:
            if bus not in (br.from_bus, br.to_bus):
                continue
            coef = net.base_mva / br.x_pu
            sign = 1.0 if br.from_bus == bus else -1.0  # outflow orientation
            if br.from_bus != net.slack:
                A_eq[row, thcol[br.from_bus]] -= sign * coef
            if br.to_bus != net.slack:
                A_eq[row, thcol[br.to_bus]] += sign * coef

    ub_rows, ub_rhs = [], []
    for br in net.branches:
        if br.limit_mw is None:
            continue
        row = np.zeros(nv)
        coef = net.base_mva / br.x_pu
        if br.from_bus != net.slack:
            row[thcol[br.from_bus]] = coef
        if br.to_bus != net.slack:
            row[thcol[br.to_bus]] = -coef
        ub_rows.extend([row, -row])
        ub_rhs.extend([br.limit_mw, br.limit_mw])
    A_ub = np.array(ub_rows) if ub_rows else None
    b_ub = np.array(ub_rhs) if ub_rhs else None

    bounds = [(g.p_min, g.p_max) for g in gens] + [(None, None)] * len(state)
    return dict(c=cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")


def solve_recording_lp(case, monkeypatch, solve_instead=None):
    """Run ``solve_dc_opf``, recording linprog's arguments; optionally solve other ones."""
    real = scipy.optimize.linprog
    seen = []

    def spy(c, **kwargs):
        seen.append(dict(c=c, **kwargs))
        return real(**(solve_instead or seen[-1]))

    with monkeypatch.context() as patch:
        patch.setattr(scipy.optimize, "linprog", spy)
        result = solve_dc_opf(case)
    (lp,) = seen
    return lp, result


def result_bits(result):
    """Every field of a DispatchResult, floats as their IEEE bytes."""
    return (
        result.gen_output.tobytes(),
        result.flows.tobytes(),
        tuple(result.lmp),
        np.array(list(result.lmp.values())).tobytes(),
        np.float64(result.objective).tobytes(),
        result.binding_lines,
    )


def assert_pinned_to_reference(case, monkeypatch):
    expected = reference_lp(case)
    lp, result = solve_recording_lp(case, monkeypatch)
    assert lp.keys() == expected.keys()
    for key, want in expected.items():
        if isinstance(want, np.ndarray):
            assert isinstance(lp[key], np.ndarray) and np.array_equal(lp[key], want), key
        else:
            assert not isinstance(lp[key], np.ndarray) and lp[key] == want, key
    _, on_reference = solve_recording_lp(case, monkeypatch, solve_instead=expected)
    assert result_bits(result) == result_bits(on_reference)


@st.composite
def markets(draw):
    """A random feasible market on a random network, with flow limits on some branches.

    Most buses carry a load; generators (p_min = 0, some sharing a bus) have
    1.2 to 3 times the demand in capacity. Each limited branch gets 1.05 to
    1.5 times its flow under proportional dispatch, every unit at the same
    share of its capacity: that dispatch stays feasible, while the
    least-cost one may congest the line.
    """
    net, _ = draw(networks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nb = len(net.buses)
    demand = np.where(rng.random(nb) < 0.7, rng.uniform(1.0, 100.0, nb), 0.0)
    at = rng.integers(nb, size=rng.integers(1, nb + 2))
    capacity = rng.uniform(0.5, 1.5, len(at))
    capacity *= rng.uniform(1.2, 3.0) * max(demand.sum(), 1.0) / capacity.sum()

    injection = -demand
    np.add.at(injection, at, capacity * demand.sum() / capacity.sum())
    index = {bus: k for k, bus in enumerate(net.buses)}
    incidence = np.zeros((len(net.branches), nb))
    for i, br in enumerate(net.branches):
        incidence[i, [index[br.from_bus], index[br.to_bus]]] = 1.0, -1.0
    susceptance = np.array([net.base_mva / br.x_pu for br in net.branches])
    laplacian = (incidence.T * susceptance) @ incidence
    theta = np.zeros(nb)
    free = [k for k, bus in enumerate(net.buses) if bus != net.slack]
    theta[free] = np.linalg.solve(laplacian[np.ix_(free, free)], injection[free])
    flows = susceptance * (incidence @ theta)
    branches = tuple(
        Branch(br.from_bus, br.to_bus, br.x_pu, max(1.0, abs(flow) * rng.uniform(1.05, 1.5)))
        if rng.random() < 0.5
        else br
        for br, flow in zip(net.branches, flows)
    )
    return DispatchCase(
        network=NetworkModel(buses=net.buses, branches=branches, slack=net.slack),
        generators=tuple(
            Generator(bus=net.buses[k], price=float(p), p_max=float(c))
            for k, p, c in zip(at, rng.uniform(5.0, 50.0, len(at)), capacity)
        ),
        loads=tuple(Load(bus=bus, mw=float(d)) for bus, d in zip(net.buses, demand) if d > 0),
    )


@pytest.mark.parametrize("network", ["network.json", "network_limit34.json"])
def test_lp_matches_the_per_bus_assembly_on_the_5_bus_case(network, monkeypatch):
    net = caseio.parse_network(CASES_5BUS / network)
    assert_pinned_to_reference(caseio.parse_market(CASES_5BUS / "market.json", net), monkeypatch)


@MARKET_SETTINGS
@given(markets())
def test_lp_matches_the_per_bus_assembly_on_random_networks(case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_pinned_to_reference(case, monkeypatch)


def test_lmps_are_subgradients_of_the_optimal_cost():
    """C(d + eps e_k) - C(d) >= eps lmp_k >= C(d) - C(d - eps e_k), at every bus k.

    Both bounds hold at degenerate optima too, where the LMP is one of many
    subgradients. A side is skipped when its re-solve is infeasible or
    would make a load negative.
    """
    eps, tol = 0.1, 1e-3
    sides = Counter()

    def cost_with(case, bus, delta):
        loads = case.load_by_bus()
        loads[bus] += delta
        if loads[bus] < 0:
            return None
        try:
            shifted = DispatchCase(
                network=case.network,
                generators=case.generators,
                loads=tuple(Load(bus=b, mw=mw) for b, mw in loads.items()),
            )
            return solve_dc_opf(shifted).objective
        except InfeasibleDispatch:
            return None

    @MARKET_SETTINGS
    @given(markets())
    def check(case):
        base = solve_dc_opf(case)
        both = False
        for bus, lmp in base.lmp.items():
            up, down = cost_with(case, bus, eps), cost_with(case, bus, -eps)
            if up is not None:
                assert up - base.objective >= eps * lmp - tol
            if down is not None:
                assert base.objective - down <= eps * lmp + tol
            sides["checked"] += (up is not None) + (down is not None)
            sides["skipped"] += (up is None) + (down is None)
            both |= up is not None and down is not None
        sides["examples"] += 1
        sides["both sides at some bus"] += both
        sides["congested"] += bool(base.binding_lines)

    check()
    assert sides["both sides at some bus"] > 0.75 * sides["examples"], sides
    assert sides["skipped"] < 0.25 * sides["checked"], sides
    assert sides["congested"] > 0, sides
