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
    UnboundedProblem,
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
        total_demand = sum(l.mw for l in self.loads)
        if total_cap < total_demand:
            raise InfeasibleDispatch(
                f"total capacity {total_cap} MW < total demand {total_demand} MW"
            )

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
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        raise InfeasibleDispatch(f"no feasible dispatch: {res.message}")
    if res.status == 3:
        raise UnboundedProblem(f"dispatch problem unbounded: {res.message}")
    if res.status != 0:
        raise NumericalError(f"LP solve failed (status {res.status}): {res.message}")

    theta = {net.slack: 0.0, **{b: res.x[thcol[b]] for b in state}}
    flows = np.array(
        [net.base_mva / br.x_pu * (theta[br.from_bus] - theta[br.to_bus]) for br in net.branches]
    )
    binding = tuple(
        i
        for i, br in enumerate(net.branches)
        if br.limit_mw is not None and abs(flows[i]) >= br.limit_mw - BINDING_TOLERANCE_MW
    )
    lmp = {bus: float(res.eqlin.marginals[row]) for row, bus in enumerate(net.buses)}
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
    from the clean and attacked estimates. Each meter's flow delta shifts
    the apparent net injection of its branch endpoints (+ at the sending
    bus, - at the receiving bus); bus loads are adjusted by the opposite
    amount so the perceived case reproduces what the operator would
    redispatch against.
    """
    before = np.asarray(flows_before, dtype=float).reshape(-1)
    after = np.asarray(flows_after, dtype=float).reshape(-1)
    if before.shape != after.shape or before.shape[0] != len(meters):
        raise DimensionMismatch("flow vectors must both be dimensioned to the meter set")

    net = case.network
    delta_inj = dict.fromkeys(net.buses, 0.0)
    for meter, d_pu in zip(meters.meters, after - before):
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
    """Profit in $/h: quantity * (LMP after at sell bus - LMP before at buy bus)."""
    if quantity < 0:
        raise ValidationError(f"quantity {quantity} must be >= 0")
    return quantity * (after.lmp_at(sell_bus) - before.lmp_at(buy_bus))
