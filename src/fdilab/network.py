"""Network and metering topology for the DC power-flow model.

Buses carry only a voltage angle (flat 1 p.u. magnitudes); a branch with
reactance x carries the real-power flow (theta_from - theta_to) / x in
per-unit. One bus is the slack with its angle fixed at zero, so a system
of b buses has n = b - 1 state variables.

``build_h_matrix`` assembles the m x n measurement matrix H that maps the
state vector onto the m metered branch flows, z = H x + e. Whether H has
full column rank is a property of the metered graph alone (Krumpholz,
Clements and Davis, 1980), so one walk from the slack decides both the
connectivity of the network and the observability of a meter placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicateBus,
    NonPositiveReactance,
    UnknownBranch,
    UnobservableConfiguration,
    ValidationError,
)

BusId = int


@dataclass(frozen=True, slots=True)
class Branch:
    """Transmission line between two buses. ``limit_mw`` of None means unconstrained."""

    from_bus: BusId
    to_bus: BusId
    x_pu: float
    limit_mw: float | None = None

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(f"branch {self.from_bus}-{self.to_bus} is a self-loop")
        if not self.x_pu > 0:
            raise NonPositiveReactance(
                f"branch {self.from_bus}-{self.to_bus}: reactance {self.x_pu} must be > 0"
            )
        if not (math.isfinite(self.x_pu) and math.isfinite(1.0 / float(self.x_pu))):
            raise ValidationError(
                f"branch {self.from_bus}-{self.to_bus}: reactance {self.x_pu} and its "
                "reciprocal must both be finite"
            )
        if self.limit_mw is not None and not self.limit_mw > 0:
            raise ValidationError(
                f"branch {self.from_bus}-{self.to_bus}: flow limit {self.limit_mw} must be > 0"
            )


@dataclass(frozen=True)
class NetworkModel:
    """Validated, immutable bus/branch graph with a designated slack bus."""

    buses: tuple[BusId, ...]
    branches: tuple[Branch, ...]
    slack: BusId
    base_mva: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        seen = set()
        for b in self.buses:
            if not isinstance(b, int) or b <= 0:
                raise ValidationError(f"bus id {b!r} must be a positive integer")
            if b in seen:
                raise DuplicateBus(f"bus id {b} appears more than once")
            seen.add(b)
        if self.slack not in seen:
            raise ValidationError(f"slack bus {self.slack} is not in the bus list")
        if not self.base_mva > 0:
            raise ValidationError(f"base_mva {self.base_mva} must be > 0")
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in seen:
                    raise ValidationError(
                        f"branch {br.from_bus}-{br.to_bus} references unknown bus {end}"
                    )
        self._check_connected()

    def _check_connected(self):
        missing = _unreached(self, self.branches)
        if missing:
            raise DisconnectedGraph(f"buses {missing} are not connected to slack bus {self.slack}")

    @property
    def n_states(self) -> int:
        return len(self.buses) - 1

    @property
    def state_buses(self) -> tuple[BusId, ...]:
        """Non-slack buses in input order; defines the state/column ordering."""
        return tuple(b for b in self.buses if b != self.slack)

    def branch_resolver(self) -> Callable[[BusId, BusId], tuple[int, int]]:
        """A lookup ``(from_bus, to_bus) -> (index, orientation)`` of branches.

        orientation is +1 when (from_bus, to_bus) matches the stored branch
        direction and -1 when reversed. Of parallel branches, the first in
        input order wins, whichever way it is stored. The lookup's dict, keyed
        (lower id, higher id), lives as long as the returned function, not as
        long as the network.
        """
        first: dict[tuple[BusId, BusId], int] = {}
        for i, br in enumerate(self.branches):
            first.setdefault(_pair(br.from_bus, br.to_bus), i)
        branches = self.branches

        def resolve(from_bus: BusId, to_bus: BusId) -> tuple[int, int]:
            index = first.get(_pair(from_bus, to_bus))
            if index is None:
                raise UnknownBranch(f"no branch joins buses {from_bus} and {to_bus}")
            return index, +1 if branches[index].from_bus == from_bus else -1

        return resolve


def _pair(a: BusId, b: BusId) -> tuple[BusId, BusId]:
    return (a, b) if a <= b else (b, a)


def _unreached(net: NetworkModel, branches) -> list[BusId]:
    """Buses of ``net`` that no path over ``branches`` joins to the slack, sorted."""
    adjacency: dict[BusId, list[BusId]] = {b: [] for b in net.buses}
    for br in branches:
        adjacency[br.from_bus].append(br.to_bus)
        adjacency[br.to_bus].append(br.from_bus)
    reached = {net.slack}
    stack = [net.slack]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return sorted(set(net.buses) - reached)


@dataclass(frozen=True, slots=True)
class Meter:
    """One real-power flow meter on a branch.

    ``orientation`` +1 reads the stored from->to flow, -1 the reverse.
    """

    branch: int
    orientation: int = +1
    sigma: float = 0.01

    def __post_init__(self):
        if self.orientation not in (+1, -1):
            raise ValidationError(f"meter orientation {self.orientation} must be +1 or -1")
        if not self.sigma > 0:
            raise ValidationError(f"meter sigma {self.sigma} must be > 0")


@dataclass(frozen=True)
class MeterConfig:
    meters: tuple[Meter, ...]

    def __post_init__(self):
        object.__setattr__(self, "meters", tuple(self.meters))
        if not self.meters:
            raise ValidationError("meter configuration is empty")

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([m.sigma for m in self.meters], dtype=float)

    def __len__(self) -> int:
        return len(self.meters)


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float array: a copy, so a caller's array is never
    frozen, unless it already is a read-only float array that owns its memory."""
    owned = isinstance(values, np.ndarray) and values.dtype == float and values.base is None
    if not owned or values.flags.writeable:
        values = np.array(values, dtype=float)
        values.flags.writeable = False
    return values


@dataclass(frozen=True)
class MeasurementMatrix:
    """m x n matrix mapping non-slack bus angles to metered branch flows.

    ``values`` is read-only; ``_model`` is the slot of ``WlsModel.of``.
    """

    values: np.ndarray
    state_buses: tuple[BusId, ...] = field(default=())
    _model: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _read_only(self.values))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def state_index(self, bus: BusId) -> int:
        try:
            return self.state_buses.index(bus)
        except ValueError:
            raise ValidationError(f"bus {bus} has no state column (slack or unknown)") from None


def build_network(case: dict) -> NetworkModel:
    """Construct a validated NetworkModel from a parsed case record.

    Expected keys: buses (list of ids), branches (list of {from, to, x_pu,
    limit_mw?}), slack, base_mva (optional, default 100).
    """
    try:
        buses = tuple(int(b) for b in case["buses"])
        branches = tuple(
            Branch(
                from_bus=int(rec["from"]),
                to_bus=int(rec["to"]),
                x_pu=float(rec["x_pu"]),
                limit_mw=None if rec.get("limit_mw") is None else float(rec["limit_mw"]),
            )
            for rec in case["branches"]
        )
        slack = int(case["slack"])
        base_mva = float(case.get("base_mva", 100.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed case record: {exc}") from exc
    return NetworkModel(buses=buses, branches=branches, slack=slack, base_mva=base_mva)


def build_h_matrix(net: NetworkModel, meters: MeterConfig) -> MeasurementMatrix:
    """Assemble H for the given meter placement.

    The row of a meter on branch (i, j) oriented i->j carries +1/x in the
    column of theta_i and -1/x in the column of theta_j; the slack bus has
    no column. Raises UnobservableConfiguration when rank(H) < n, which
    holds exactly when some bus is not joined to the slack by metered
    branches: a walk over them decides it, and no factorisation of H is
    made. A placement that is observable but badly conditioned passes here
    and fails where its gain is factored, as SingularGainMatrix.
    """
    state = net.state_buses
    col = {b: k for k, b in enumerate(state)}
    H = np.zeros((len(meters), len(state)))
    for row, meter in enumerate(meters.meters):
        if not 0 <= meter.branch < len(net.branches):
            raise UnknownBranch(f"meter {row} references branch index {meter.branch}")
        br = net.branches[meter.branch]
        w = meter.orientation / br.x_pu
        if br.from_bus != net.slack:
            H[row, col[br.from_bus]] += w
        if br.to_bus != net.slack:
            H[row, col[br.to_bus]] -= w
    H.flags.writeable = False  # handed over to the MeasurementMatrix without a copy
    unobserved = _unreached(net, (net.branches[m.branch] for m in meters.meters))
    if unobserved:
        raise UnobservableConfiguration(
            f"rank(H) < {len(state)}: buses {unobserved} are not joined to slack bus "
            f"{net.slack} by metered branches, so the placement does not observe the full state"
        )
    return MeasurementMatrix(values=H, state_buses=state)
