import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CASES_5BUS
from fdilab import caseio
from fdilab.attack import targeted_attack
from fdilab.errors import DimensionMismatch, InfeasibleDispatch, NumericalError, UnknownBus, ValidationError
from fdilab.estimation import WeightModel, wls_estimate
from fdilab.market import (
    DispatchCase,
    Generator,
    arbitrage_profit,
    perceived_case_from_attack,
    solve_dc_opf,
)
from fdilab.network import Branch, Meter, MeterConfig, NetworkModel, build_h_matrix
from test_observability import networks

MARKET_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def single_bus_case(price=10.0, pmax=100.0, demand=50.0):
    net = NetworkModel(buses=(1,), branches=(), slack=1)
    return DispatchCase(
        network=net,
        generators=(Generator(bus=1, price=price, p_max=pmax),),
        demand=(demand,),
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
        demand=(0.0, demand),
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
    for bus, demand in zip(net.buses, market5.demand):
        gen = sum(
            out for g, out in zip(market5.generators, result.gen_output) if g.bus == bus
        )
        outflow = sum(
            (1.0 if br.from_bus == bus else -1.0) * result.flows[i]
            for i, br in enumerate(net.branches)
            if bus in (br.from_bus, br.to_bus)
        )
        assert gen - demand - outflow == pytest.approx(0.0, abs=1e-6)
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
        demand=(0.0, 100.0),
    )
    with pytest.raises(InfeasibleDispatch):
        solve_dc_opf(case)


def test_an_lp_status_other_than_solved_or_infeasible_is_a_numerical_error(monkeypatch):
    # such as HiGHS's 3, unbounded, which this LP cannot be: prices are >= 0, outputs lie in
    # [p_min, p_max] and the angles cost nothing
    unbounded = scipy.optimize.OptimizeResult(status=3, message="The problem is unbounded.")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: unbounded)
    with pytest.raises(NumericalError, match=r"^LP solve failed \(status 3\): The problem is unbounded\.$") as info:
        solve_dc_opf(single_bus_case())
    assert info.value.exit_code == 3


def test_generator_and_load_validation():
    with pytest.raises(ValidationError):
        Generator(bus=1, price=10.0, p_max=5.0, p_min=6.0)
    with pytest.raises(ValidationError):
        Generator(bus=1, price=-1.0, p_max=5.0)
    with pytest.raises(ValidationError, match="^generator at bus 1: price -inf < 0$"):
        Generator(bus=1, price=-np.inf, p_max=5.0)
    for value in (np.nan, np.inf):
        with pytest.raises(ValidationError, match=f"^generator at bus 1: price {value} must be finite$"):
            Generator(bus=1, price=value, p_max=5.0)
    net = NetworkModel(buses=(1,), branches=(), slack=1)
    with pytest.raises(UnknownBus):
        DispatchCase(network=net, generators=(Generator(bus=7, price=1.0, p_max=1.0),), demand=(0.0,))
    # a demand is one finite value >= 0 per bus
    net = NetworkModel(buses=(4, 2, 9), branches=(Branch(4, 2, 0.1), Branch(2, 9, 0.1)), slack=4)
    gens = (Generator(bus=4, price=1.0, p_max=1e3),)
    for demand in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), np.ones((3, 1)), 5.0):
        with pytest.raises(DimensionMismatch, match=r"^demand has shape \(.*\), not \(3,\): one value per bus$"):
            DispatchCase(net, gens, demand)
    for value, fault in ((-2.0, "< 0"), (-np.inf, "< 0"), (np.nan, "must be finite"), (np.inf, "must be finite")):
        # the first bad bus in network order is named, here bus 2 before bus 9
        with pytest.raises(ValidationError, match=f"^load at bus 2: demand {value} {fault}$"):
            DispatchCase(net, gens, (1.0, value, -1.0))
    given = np.array([1.0, 0.0, 3.5])
    case = DispatchCase(net, gens, given)
    given[0] = 7.0  # the case keeps a read-only copy
    assert case.demand.tolist() == [1.0, 0.0, 3.5] and not case.demand.flags.writeable
    assert case != DispatchCase(net, gens, given) and case == case  # compared by identity


def test_a_case_without_a_generator_is_refused():
    # with no generator every LMP is an arbitrary dual; a positive demand is infeasible first
    net = NetworkModel(buses=(1,), branches=(), slack=1)
    with pytest.raises(ValidationError, match="^dispatch case has no generator$"):
        DispatchCase(network=net, generators=(), demand=(0.0,))
    with pytest.raises(InfeasibleDispatch, match="total capacity 0 MW < total demand 5.0 MW"):
        DispatchCase(network=net, generators=(), demand=(5.0,))
    with pytest.raises(ValidationError, match="^dispatch case has no generator$"):
        DispatchCase(network=two_bus_case().network, generators=(), demand=(0.0, 0.0))


# -- perceived case from an attack -------------------------------------------------

def test_zero_flow_delta_keeps_case(market5, meters5):
    flows = np.array([0.91, -0.16, 0.19, 0.21, 0.89, 0.09])
    perceived = perceived_case_from_attack(market5, meters5, flows, flows)
    assert perceived.demand.tolist() == market5.demand.tolist()


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
    loads0 = dict(zip(market5.network.buses, market5.demand.tolist()))
    loads1 = dict(zip(perceived.network.buses, perceived.demand.tolist()))
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
        case = perceived_case_from_attack(market, config, clean.fitted, attacked.fitted)
        perceived.append(dict(zip(net5_limited.buses, case.demand.tolist())))
    single, duplicated = perceived
    assert (single[3], single[4]) == pytest.approx((80.0, 100.0), abs=1e-9)
    assert duplicated == pytest.approx(single, abs=1e-9)


def reference_perceived_loads(case, meters, before, after):
    """The perceived demand by a loop over the meters, each branch through its first meter only,
    as each bus's MW in hex, or the message of the first negative demand."""
    net = case.network
    delta_inj = dict.fromkeys(net.buses, 0.0)
    counted = set()
    for meter, d_pu in zip(meters.meters, after - before):
        if meter.branch in counted:
            continue
        counted.add(meter.branch)
        br = net.branches[meter.branch]
        d_mw = meter.orientation * d_pu * net.base_mva
        delta_inj[br.from_bus] += d_mw
        delta_inj[br.to_bus] -= d_mw
    demand = [mw - delta_inj[b] for b, mw in zip(net.buses, case.demand.tolist())]
    negative = [f"load at bus {b}: demand {mw} < 0" for b, mw in zip(net.buses, demand) if mw < 0]
    return negative[0] if negative else [mw.hex() for mw in demand]


@settings(MARKET_SETTINGS, max_examples=400)  # cheap examples; a bus needs 3 shifts for order to show
@given(networks(), st.integers(0, 2**32 - 1))
def test_perceived_loads_equal_the_per_meter_loop_bit_for_bit(case, seed):
    # networks() puts reversed duplicates on some metered branches and its slack anywhere, so
    # some metered branches end at the slack; about half the buses carry no load, and some
    # meters see no change
    net, meters = case
    rng = np.random.default_rng(seed)
    net = NetworkModel(net.buses, net.branches, net.slack, base_mva=float(rng.choice([100.0, 37.5, 1e3])))
    demand = np.where(rng.random(len(net.buses)) < 0.5, rng.uniform(0.0, 300.0, len(net.buses)), 0.0)
    market = DispatchCase(net, (Generator(bus=net.slack, price=10.0, p_max=1e9),), demand)
    before = rng.normal(size=len(meters))
    shift = rng.normal(size=len(meters)) * 10.0 ** rng.uniform(-4, 4, len(meters))  # sums that round
    after = before + np.where(rng.random(len(meters)) < 0.7, shift, 0.0)
    try:
        perceived = perceived_case_from_attack(market, meters, before, after)
    except ValidationError as exc:
        got = str(exc)
    else:
        got = [mw.hex() for mw in perceived.demand.tolist()]
    assert got == reference_perceived_loads(market, meters, before, after)


@MARKET_SETTINGS
@given(st.data())
def test_an_attack_moves_flows_not_total_demand(data):
    # the case's exact flows H x and H (x + c), c a shift at one loaded bus small enough to
    # keep its demand >= 0, on every branch read once either way and some read twice
    case = data.draw(markets())
    net = case.network
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    loaded = [k for k, b in enumerate(net.state_buses) if case.demand[net.buses.index(b)] > 0]
    assume(loaded)
    reads = [(i, int(o)) for i in range(len(net.branches)) for o in rng.choice([1, -1], rng.integers(1, 3))]
    meters = MeterConfig(tuple(Meter(branch=i, orientation=o) for i, o in reads))
    H = build_h_matrix(net, meters)
    k = loaded[rng.integers(len(loaded))]
    bus = net.state_buses[k]
    reach = sum(net.base_mva / br.x_pu for br in net.branches if bus in (br.from_bus, br.to_bus))
    c = np.zeros(H.n)
    c[k] = rng.uniform(0.05, 0.5) * case.demand[net.buses.index(bus)] / reach
    x = rng.normal(size=H.n)
    perceived = perceived_case_from_attack(case, meters, H.dot(x), H.dot(x + c))
    assert not np.array_equal(perceived.demand, case.demand)
    assert sum(perceived.demand.tolist()) == pytest.approx(sum(case.demand.tolist()), rel=1e-9)


def test_profit_scenario_congestion(net5_limited, meters5, h5, z5, w5):
    market = DispatchCase(
        network=net5_limited,
        generators=(
            Generator(bus=1, price=10.0, p_max=250.0),
            Generator(bus=3, price=15.0, p_max=300.0),
            Generator(bus=5, price=30.0, p_max=500.0),
        ),
        demand=(100.0, 100.0, 200.0, 40.0, 60.0),
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

    A_eq = np.zeros((len(net.buses), nv))
    b_eq = np.zeros(len(net.buses))
    for row, bus in enumerate(net.buses):
        b_eq[row] = case.demand[row]
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


def csc_bits(A):
    """The CSC arrays of A, dense or sparse, as linprog converts it for HiGHS: shape, then each array's type and bytes."""
    A = scipy.sparse.csc_array(A)
    return A.shape, *((x.dtype.str, x.tobytes()) for x in (A.indptr, A.indices, A.data))


def assert_pinned_to_reference(case, monkeypatch):
    expected = reference_lp(case)
    lp, result = solve_recording_lp(case, monkeypatch)
    assert lp.keys() == expected.keys()
    for key, want in expected.items():
        if key in ("A_eq", "A_ub") and want is not None:
            # sparse, each nonzero cell stored once, and the same CSC as the dense reference's
            assert scipy.sparse.issparse(lp[key]) and lp[key].nnz == np.count_nonzero(want), key
            assert csc_bits(lp[key]) == csc_bits(want), key
        elif isinstance(want, np.ndarray):
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
        demand=demand,
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


def lmp_decomposition_error(case, monkeypatch):
    """The largest |lambda - lambda_slack - B_red^-1 B_f' mu| over the state buses, and the LMP spread.

    B_red is the bus susceptance matrix on the state buses, and B_f maps their
    angles to the flows of the limited branches, in branch order; mu is each
    limited branch's +flow row dual minus its -flow row dual, read off the
    linprog result that ``solve_dc_opf`` received.
    """
    real = scipy.optimize.linprog
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(scipy.optimize, "linprog", lambda c, **kwargs: seen.append(real(c, **kwargs)) or seen[-1])
        result = solve_dc_opf(case)
    (res,) = seen
    net = case.network
    index = {bus: k for k, bus in enumerate(net.state_buses)}
    B_red = np.zeros((len(index), len(index)))
    B_f = []
    for br in net.branches:
        incidence = np.zeros(len(index))
        for bus, sign in ((br.from_bus, 1.0), (br.to_bus, -1.0)):
            if bus in index:
                incidence[index[bus]] = sign
        coef = net.base_mva / br.x_pu
        B_red += coef * np.outer(incidence, incidence)
        if br.limit_mw is not None:
            B_f.append(coef * incidence)
    mu = res.ineqlin.marginals[0::2] - res.ineqlin.marginals[1::2]
    congestion = np.linalg.solve(B_red, np.reshape(B_f, (-1, len(index))).T @ mu)
    lmp = np.array([result.lmp[bus] for bus in net.state_buses])
    error = np.max(np.abs(lmp - result.lmp[net.slack] - congestion), initial=0.0)
    return error, max(result.lmp.values()) - min(result.lmp.values())


@pytest.mark.parametrize("network", ["network.json", "network_limit34.json", None], ids=["5-bus", "5-bus-limit34", "2-bus"])
def test_lmps_are_the_slack_price_plus_the_congestion_term(network, monkeypatch):
    if network is None:  # the congested two-bus case: the import price is the dear unit's
        case = two_bus_case()
    else:
        case = caseio.parse_market(CASES_5BUS / "market.json", caseio.parse_network(CASES_5BUS / network))
    error, spread = lmp_decomposition_error(case, monkeypatch)
    assert error <= 1e-9 * max(1.0, spread)
    assert (spread > 1.0) == (network is None)


@MARKET_SETTINGS
@given(markets())
def test_lmps_are_the_slack_price_plus_the_congestion_term_on_random_networks(case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        error, spread = lmp_decomposition_error(case, monkeypatch)
    assert error <= 1e-9 * max(1.0, spread)


def test_lp_of_1000_buses_is_built_without_a_dense_matrix():
    # a seeded 1,000-bus tree plus 400 extra lines, half of them limited far above any flow:
    # the traced peak stays under half of the dense A_eq, buses x (generators + buses - 1) doubles
    rng = np.random.default_rng(1000)
    buses = [int(b) for b in rng.permutation(np.arange(1, 1001))]
    pairs = [(buses[k], buses[rng.integers(k)]) for k in range(1, 1000)]
    pairs += [tuple(int(b) for b in rng.choice(buses, 2, replace=False)) for _ in range(400)]
    branches = tuple(
        Branch(f, t, float(x), 1e6 if rng.random() < 0.5 else None)
        for (f, t), x in zip(pairs, rng.uniform(0.01, 0.5, len(pairs)))
    )
    at = rng.choice(buses, 100, replace=False)
    case = DispatchCase(
        network=NetworkModel(tuple(buses), branches, buses[0]),
        generators=tuple(Generator(bus=int(b), price=float(p), p_max=500.0) for b, p in zip(at, rng.uniform(5, 50, 100))),
        demand=rng.uniform(0.0, 40.0, 1000),
    )
    solve_dc_opf(two_bus_case())  # scipy's lazy imports happen outside the trace
    tracemalloc.start()
    try:
        solve_dc_opf(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 1000 * (100 + 999) * 8


def test_lmps_are_subgradients_of_the_optimal_cost():
    """C(d + eps e_k) - C(d) >= eps lmp_k >= C(d) - C(d - eps e_k), at every bus k.

    Both bounds hold at degenerate optima too, where the LMP is one of many
    subgradients. A side is skipped when its re-solve is infeasible or
    would make a load negative.
    """
    eps, tol = 0.1, 1e-3
    sides = Counter()

    def cost_with(case, k, delta):
        demand = case.demand.copy()
        demand[k] += delta
        if demand[k] < 0:
            return None
        try:
            return solve_dc_opf(DispatchCase(case.network, case.generators, demand)).objective
        except InfeasibleDispatch:
            return None

    @MARKET_SETTINGS
    @given(markets())
    def check(case):
        base = solve_dc_opf(case)
        both = False
        for k, lmp in enumerate(base.lmp.values()):  # in network bus order, as the demand
            up, down = cost_with(case, k, eps), cost_with(case, k, -eps)
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
