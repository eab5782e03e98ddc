"""DC optimal power flow with locational marginal prices.

Least-cost dispatch subject to nodal balance, line limits and generator
bounds, formulated as an LP over generator outputs and non-slack bus
angles. The LMP at a bus is the dual of its balance constraint: the cost
of serving one marginal MW there. Congestion (a line at its limit) makes
LMPs diverge across buses, which is what the attack in this package
monetizes: buy where the perceived grid is cheap, sell where the falsified
congestion makes it expensive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleDispatch,
    NumericalError,
    UnknownBus,
    ValidationError,
)
from .network import BusId, MeterConfig, NetworkModel

# |flow| within this many MW of the limit counts as binding.
BINDING_TOLERANCE_MW = 1e-6


@dataclass(frozen=True)
class Generator:
    bus: BusId
    price: float        # $/MWh
    p_max: float        # MW
    p_min: float = 0.0  # MW

    def __post_init__(self):
        if not 0 <= self.p_min <= self.p_max:
            raise ValidationError(
                f"generator at bus {self.bus}: need 0 <= p_min <= p_max, "
                f"got ({self.p_min}, {self.p_max})"
            )
        if self.price < 0:
            raise ValidationError(f"generator at bus {self.bus}: price {self.price} < 0")


@dataclass(frozen=True)
class Load:
    bus: BusId
    mw: float

    def __post_init__(self):
        if self.mw < 0:
            raise ValidationError(f"load at bus {self.bus}: demand {self.mw} < 0")


@dataclass(frozen=True)
class DispatchCase:
    network: NetworkModel
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "loads", tuple(self.loads))
        buses = set(self.network.buses)
        for g in self.generators:
            if g.bus not in buses:
                raise UnknownBus(f"generator references unknown bus {g.bus}")
        for l in self.loads:
            if l.bus not in buses:
                raise UnknownBus(f"load references unknown bus {l.bus}")
        total_cap = sum(g.p_max for g in self.generators)
        total_min = sum(g.p_min for g in self.generators)
        total_demand = sum(l.mw for l in self.loads)
        if total_cap < total_demand:
            raise InfeasibleDispatch(
                f"total capacity {total_cap} MW < total demand {total_demand} MW"
            )
        if total_min > total_demand:
            raise InfeasibleDispatch(
                f"total minimum output {total_min} MW > total demand {total_demand} MW"
            )
        if not self.generators:  # with no generator, every LMP is an arbitrary dual
            raise ValidationError("dispatch case has no generator")

    def load_by_bus(self) -> dict[BusId, float]:
        out = dict.fromkeys(self.network.buses, 0.0)
        for l in self.loads:
            out[l.bus] += l.mw
        return out


@dataclass(frozen=True)
class DispatchResult:
    gen_output: np.ndarray            # MW, per generator (case order)
    flows: np.ndarray                 # MW, per branch (network order)
    lmp: dict[BusId, float]           # $/MWh
    objective: float                  # $/h
    binding_lines: tuple[int, ...]    # branch indices at their limit

    def lmp_at(self, bus: BusId) -> float:
        try:
            return self.lmp[bus]
        except KeyError:
            raise UnknownBus(f"no LMP for unknown bus {bus}") from None


def _summed(terms, shape):
    """The sparse matrix whose every cell sums its (row, column, term) terms in list
    order, as a dense matrix adds them one by one, with its exact zeros dropped, as
    the dense to CSC conversion in ``linprog`` drops them."""
    from scipy.sparse import coo_array

    rows, cols, values = zip(*terms)
    cells, inverse = np.unique(np.multiply(rows, shape[1]) + cols, return_inverse=True)
    sums = np.bincount(inverse, values, len(cells))
    nonzero = sums != 0
    coords = np.array(np.divmod(cells[nonzero], shape[1]), dtype=np.int32)  # the dense conversion's index type
    return coo_array((sums[nonzero], coords), shape=shape)


def solve_dc_opf(case: DispatchCase) -> DispatchResult:
    """Minimize total generation cost subject to DC flow physics.

    Variables are generator outputs (MW) and non-slack bus angles (rad);
    the flow on branch (i, j) is base_mva * (theta_i - theta_j) / x. LMPs
    are read off the equality-constraint duals of the LP solution.
    """
    # scipy.optimize is loaded by the first OPF, not by ``import fdilab``
    from scipy.optimize import linprog

    net = case.network
    gens = case.generators
    ng = len(gens)
    row = {bus: k for k, bus in enumerate(net.buses)}
    col = {bus: ng + k for k, bus in enumerate(net.state_buses)}  # angle columns
    nv = ng + len(col)

    cost = np.zeros(nv)
    cost[:ng] = [g.price for g in gens]
    loads = case.load_by_bus()
    b_eq = np.array([loads[bus] for bus in net.buses])
    eq = [(row[g.bus], gi, 1.0) for gi, g in enumerate(gens)]  # (row, column, term) of A_eq

    # One pass over the branches. The flow's angle terms, (column, d flow / d
    # column) for each end that is not the slack, leave the from-bus balance
    # row and enter the to-bus row; +flow <= limit, then -flow <= limit, are
    # the A_ub rows of each branch with a flow limit.
    ub, limits = [], []
    for br in net.branches:
        coef = net.base_mva / br.x_pu
        terms = [(col[b], s) for b, s in ((br.from_bus, coef), (br.to_bus, -coef)) if b in col]
        for c, s in terms:
            eq += [(row[br.from_bus], c, -s), (row[br.to_bus], c, s)]
        if br.limit_mw is not None:
            k = 2 * len(limits)
            ub += [(k, c, s) for c, s in terms] + [(k + 1, c, -s) for c, s in terms]
            limits.append(br.limit_mw)

    A_eq = _summed(eq, (len(net.buses), nv))
    A_ub = _summed(ub, (2 * len(limits), nv)) if limits else None
    b_ub = np.repeat(limits, 2) if limits else None
    bounds = [(g.p_min, g.p_max) for g in gens] + [(None, None)] * len(col)
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        raise InfeasibleDispatch(f"no feasible dispatch: {res.message}")
    if res.status != 0:
        raise NumericalError(f"LP solve failed (status {res.status}): {res.message}")

    theta = {net.slack: 0.0, **{b: res.x[c] for b, c in col.items()}}
    flows = np.array(
        [net.base_mva / br.x_pu * (theta[br.from_bus] - theta[br.to_bus]) for br in net.branches]
    )
    binding = tuple(
        i
        for i, br in enumerate(net.branches)
        if br.limit_mw is not None and abs(flows[i]) >= br.limit_mw - BINDING_TOLERANCE_MW
    )
    lmp = {bus: float(res.eqlin.marginals[k]) for bus, k in row.items()}
    return DispatchResult(
        gen_output=res.x[:ng].copy(),
        flows=flows,
        lmp=lmp,
        objective=float(res.fun),
        binding_lines=binding,
    )


def perceived_case_from_attack(
    case: DispatchCase, meters: MeterConfig, flows_before, flows_after
) -> DispatchCase:
    """Operator's falsified view of the dispatch case.

    ``flows_before``/``flows_after`` are fitted meter readings (per-unit)
    from the clean and attacked estimates. Each metered branch's flow delta
    shifts the apparent net injection of its endpoints (+ at the sending
    bus, - at the receiving bus); bus loads are adjusted by the opposite
    amount so the perceived case reproduces what the operator would
    redispatch against. A branch counts once, through its first meter:
    fitted flows are H x_hat, so every meter of one branch reads the same
    flow, and a reversed duplicate must not shift it twice.
    """
    before = np.asarray(flows_before, dtype=float).reshape(-1)
    after = np.asarray(flows_after, dtype=float).reshape(-1)
    if before.shape != after.shape or before.shape[0] != len(meters):
        raise DimensionMismatch("flow vectors must both be dimensioned to the meter set")

    net = case.network
    delta_inj = dict.fromkeys(net.buses, 0.0)
    counted = set()
    for meter, d_pu in zip(meters.meters, after - before):
        if meter.branch in counted:
            continue
        counted.add(meter.branch)
        br = net.branches[meter.branch]
        d_mw = meter.orientation * d_pu * net.base_mva  # delta of the from->to flow
        delta_inj[br.from_bus] += d_mw
        delta_inj[br.to_bus] -= d_mw

    loads = case.load_by_bus()
    new_loads = tuple(
        Load(bus=b, mw=loads[b] - delta_inj[b])
        for b in net.buses
        if loads[b] != 0.0 or delta_inj[b] != 0.0
    )
    return DispatchCase(network=net, generators=case.generators, loads=new_loads)


def arbitrage_profit(
    before: DispatchResult,
    after: DispatchResult,
    buy_bus: BusId,
    sell_bus: BusId,
    quantity: float,
) -> float:
    """Profit in $/h: quantity * (LMP after at sell bus - LMP before at buy bus); an overflow is a ValidationError."""
    if quantity < 0:
        raise ValidationError(f"quantity {quantity} must be >= 0")
    profit = quantity * (after.lmp_at(sell_bus) - before.lmp_at(buy_bus))
    if not np.isfinite(profit):
        raise ValidationError("arbitrage profit quantity x LMP difference must be finite")
    return profit
