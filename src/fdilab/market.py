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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleDispatch,
    NumericalError,
    UnknownBus,
    ValidationError,
)
from .network import BusId, MeterConfig, NetworkModel, _is_int, _meter_branches, _read_only

# |flow| within this many MW of the limit counts as binding.
BINDING_TOLERANCE_MW = 1e-6


def _fault(value) -> str:
    """What is wrong with a price or demand that is not finite and >= 0."""
    return "< 0" if value < 0 else "must be finite"


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
        if not 0 <= self.price < np.inf:
            raise ValidationError(f"generator at bus {self.bus}: price {self.price} {_fault(self.price)}")


@dataclass(frozen=True, eq=False)
class DispatchCase:
    """Generators and ``demand``, each bus's MW in ``network.buses`` order as a read-only float
    copy. A demand must be finite and >= 0. The case compares by identity, as it holds an array."""

    network: NetworkModel
    generators: tuple[Generator, ...]
    demand: np.ndarray = field(repr=False)

    def __post_init__(self):
        buses = self.network.buses
        demand = _read_only(self.demand)
        if demand.shape != (len(buses),):
            raise DimensionMismatch(f"demand has shape {demand.shape}, not ({len(buses)},): one value per bus")
        values = demand.tolist()
        total_demand = sum(values)
        if not (0 <= min(values, default=0.0) and total_demand < np.inf):  # a NaN or inf makes the sum NaN or inf
            for bus, value in zip(buses, values):
                if not 0 <= value < np.inf:
                    raise ValidationError(f"load at bus {bus}: demand {value} {_fault(value)}")
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "demand", demand)
        for g in self.generators:
            if not _is_int(g.bus) or g.bus not in self.network.position:
                raise UnknownBus(f"generator references unknown bus {g.bus}")
        total_cap = sum(g.p_max for g in self.generators)
        total_min = sum(g.p_min for g in self.generators)
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


def _summed(shape, rows, cols, values, keep):
    """The sparse matrix whose every cell sums its (row, column, value) terms where ``keep``
    holds, read row-major, as a dense matrix adds them one by one, with its exact zeros
    dropped, as the dense to CSC conversion in ``linprog`` drops them."""
    from scipy.sparse import coo_array

    cells, inverse = np.unique(rows[keep] * shape[1] + cols[keep], return_inverse=True)
    sums = np.bincount(inverse, values[keep], len(cells))
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

    net, gens = case.network, case.generators
    ng, n = len(gens), len(net.state_buses)
    cost = np.zeros(ng + n)
    cost[:ng] = [g.price for g in gens]

    # A branch's flow, coef * (theta_from - theta_to), has an angle term at each end that is
    # not the slack, (column, d flow / d column): the from end's, then the to end's. A_eq has
    # a 1 per generator in the row of its bus, then, branch by branch, each term out of the
    # from-bus balance row and into the to-bus row, so a cell sums its terms as a dense matrix
    # would. The k-th branch with a flow limit has +flow <= limit and -flow <= limit as A_ub
    # rows 2k and 2k + 1.
    gen_rows = [net.position[g.bus] for g in gens]
    coef = net.base_mva / net.reactances
    cols = net.columns[:, [0, 0, 1, 1]]  # each term's angle column, once per balance row
    rows = np.concatenate((gen_rows, net.ends[:, [0, 1, 0, 1]].ravel()))
    values = np.concatenate((np.ones(ng), (coef[:, None] * [-1.0, 1.0, 1.0, -1.0]).ravel()))
    keep = np.concatenate((np.ones(ng, dtype=bool), cols.ravel() < n))
    A_eq = _summed((len(net.buses), ng + n), rows, np.concatenate((np.arange(ng), ng + cols.ravel())), values, keep)
    A_ub = b_ub = None
    limited = np.flatnonzero(~np.isnan(net.limits_mw))
    if limited.size:
        cols = net.columns[limited][:, [0, 1, 0, 1]]
        rows = 2 * np.arange(limited.size)[:, None] + [0, 0, 1, 1]
        values = coef[limited, None] * [1.0, -1.0, -1.0, 1.0]
        A_ub = _summed((2 * limited.size, ng + n), rows, ng + cols, values, cols < n)
        b_ub = np.repeat(net.limits_mw[limited], 2)
    bounds = [(g.p_min, g.p_max) for g in gens] + [(None, None)] * n
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=case.demand, bounds=bounds, method="highs")
    if res.status == 2:
        raise InfeasibleDispatch(f"no feasible dispatch: {res.message}")
    if res.status != 0:
        raise NumericalError(f"LP solve failed (status {res.status}): {res.message}")

    theta = np.append(res.x[ng:], 0.0)  # the slack's angle at column n
    flows = coef * (theta[net.columns[:, 0]] - theta[net.columns[:, 1]])
    binding = np.flatnonzero(np.abs(flows) >= net.limits_mw - BINDING_TOLERANCE_MW)  # NaN, no limit, never binds
    return DispatchResult(
        gen_output=res.x[:ng].copy(),
        flows=flows,
        lmp=dict(zip(net.buses, res.eqlin.marginals.tolist())),
        objective=float(res.fun),
        binding_lines=tuple(binding.tolist()),
    )


def perceived_case_from_attack(
    case: DispatchCase, meters: MeterConfig, flows_before, flows_after
) -> DispatchCase:
    """Operator's falsified view of the dispatch case.

    ``flows_before``/``flows_after`` are fitted meter readings (per-unit)
    from the clean and attacked estimates. Each metered branch's flow delta
    shifts the apparent net injection of its endpoints (+ at the sending
    bus, - at the receiving bus); each bus's demand moves by the opposite
    amount, so the perceived case is the demand vector the operator would
    redispatch against. A branch counts once, through its first meter:
    fitted flows are H x_hat, so every meter of one branch reads the same
    flow, and a reversed duplicate must not shift it twice. Each bus sums
    its shifts in meter order.
    """
    before = np.asarray(flows_before, dtype=float).reshape(-1)
    after = np.asarray(flows_after, dtype=float).reshape(-1)
    if before.shape != after.shape or before.shape[0] != len(meters):
        raise DimensionMismatch("flow vectors must both be dimensioned to the meter set")

    net = case.network
    branch = _meter_branches(net, meters)
    first = np.sort(np.unique(branch, return_index=True)[1])  # each branch's first meter, in meter order
    d_mw = meters.orientation[first] * (after - before)[first] * net.base_mva  # delta of each from->to flow
    delta_inj = np.bincount(net.ends[branch[first]].ravel(), (d_mw[:, None] * [1.0, -1.0]).ravel(), len(net.buses))
    return DispatchCase(net, case.generators, case.demand - delta_inj)


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
