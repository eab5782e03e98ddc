"""Network and metering topology for the DC power-flow model.

Buses carry only a voltage angle (flat 1 p.u. magnitudes); a branch with
reactance x carries the real-power flow (theta_from - theta_to) / x in
per-unit. One bus is the slack with its angle fixed at zero, so a system
of b buses has n = b - 1 state variables.

``build_h_matrix`` assembles the m x n measurement matrix H that maps the
state vector onto the m metered branch flows, z = H x + e. Whether H has
full column rank is a property of the metered graph alone (Krumpholz,
Clements and Davis, 1980), so one component walk decides the connectivity
of the network, the observability of a placement and the attack null space.
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
        node: dict[BusId, int] = {}  # each bus's node in the graph walk
        for b in self.buses:
            if not isinstance(b, int) or b <= 0:
                raise ValidationError(f"bus id {b!r} must be a positive integer")
            if b in node:
                raise DuplicateBus(f"bus id {b} appears more than once")
            node[b] = len(node)
        if self.slack not in node:
            raise ValidationError(f"slack bus {self.slack} is not in the bus list")
        if not (self.base_mva > 0 and all(math.isfinite(self.base_mva / br.x_pu) for br in self.branches)):
            raise ValidationError(f"base_mva {self.base_mva} must be > 0, and finite over every reactance")
        try:
            edges = [(node[br.from_bus], node[br.to_bus]) for br in self.branches]
        except KeyError as exc:
            bus = exc.args[0]  # the first branch with this bus is the one that raised
            br = next(br for br in self.branches if bus in (br.from_bus, br.to_bus))
            raise ValidationError(f"branch {br.from_bus}-{br.to_bus} references unknown bus {bus}") from None
        label = _components(len(node), edges)
        if any(label):  # not every node is in node 0's component
            missing = sorted(b for b, k in zip(node, label) if k != label[node[self.slack]])
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


def _components(size: int, edges) -> list[int]:
    """Label each node 0..size-1 of the graph of ``edges``, (i, j) node pairs,
    with the lowest node of its component: a walk from each unlabelled node in turn."""
    adjacency: list[list[int]] = [[] for _ in range(size)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    label = [-1] * size
    for root in range(size):
        if label[root] < 0:
            label[root] = root
            stack = [root]
            for node in stack:  # grows as the walk reaches new nodes
                for nxt in adjacency[node]:
                    if label[nxt] < 0:
                        label[nxt] = root
                        stack.append(nxt)
    return label


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


def _read_only(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: a copy, so a caller's array is
    never frozen, unless it already is a read-only such array that owns its memory."""
    owned = isinstance(values, np.ndarray) and values.dtype == dtype and values.base is None
    if not owned or values.flags.writeable:
        values = np.array(values, dtype=dtype)
        values.flags.writeable = False
    return values


@dataclass(frozen=True)
class MeasurementMatrix:
    """m x n matrix mapping non-slack bus angles to metered branch flows, from ``build_h_matrix``.

    Row i holds +-1/x at the columns of ``edges[i]``, lower first, bar the slack's, column n.
    ``values`` and ``edges``, the (m, 2) int meter graph, are read-only; ``_model`` is the
    slot of ``WlsModel.of``."""

    values: np.ndarray
    state_buses: tuple[BusId, ...]
    edges: np.ndarray = field(repr=False, compare=False)
    _model: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _read_only(self.values))
        object.__setattr__(self, "edges", _read_only(self.edges, int))

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


def _integer(value) -> int:
    """``int(value)``, but a ValueError for a number with a fractional part, not its truncation."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not an integer")
    return int(value)


def build_network(case: dict) -> NetworkModel:
    """Construct a validated NetworkModel from a parsed case record.

    Expected keys: buses (list of ids), branches (list of {from, to, x_pu,
    limit_mw?}), slack, base_mva (optional, default 100). A missing key or a
    value of the wrong type raises the plain KeyError, TypeError or ValueError;
    ``caseio.parse_network`` makes it a ParseError naming the file.
    """
    buses = tuple(_integer(b) for b in case["buses"])
    branches = tuple(
        Branch(
            from_bus=_integer(rec["from"]),
            to_bus=_integer(rec["to"]),
            x_pu=float(rec["x_pu"]),
            limit_mw=None if rec.get("limit_mw") is None else float(rec["limit_mw"]),
        )
        for rec in case["branches"]
    )
    slack = _integer(case["slack"])
    base_mva = float(case.get("base_mva", 100.0))
    return NetworkModel(buses=buses, branches=branches, slack=slack, base_mva=base_mva)


def build_h_matrix(net: NetworkModel, meters: MeterConfig) -> MeasurementMatrix:
    """Assemble H for the given meter placement.

    The row of a meter on branch (i, j) oriented i->j carries +1/x in the
    column of theta_i and -1/x in the column of theta_j; the slack bus has
    no column. Raises UnobservableConfiguration when rank(H) < n, which
    holds exactly when some bus is not joined to the slack by metered
    branches: a walk over them decides it, and no factorisation of H is
    made. A placement that is observable but badly conditioned passes here
    and fails where its gain is factored, as SingularGainMatrix. H keeps the
    walked graph as ``edges``, one column pair per meter, the slack being column n.
    """
    state = net.state_buses
    n = len(state)
    col = {b: k for k, b in enumerate((*state, net.slack))}  # the slack, node n, has no column of H
    H = np.zeros((len(meters), n))
    edges = []
    for row, meter in enumerate(meters.meters):
        if not 0 <= meter.branch < len(net.branches):
            raise UnknownBranch(f"meter {row} references branch index {meter.branch}")
        br = net.branches[meter.branch]
        w = meter.orientation / br.x_pu
        i, j = col[br.from_bus], col[br.to_bus]
        if i < n:
            H[row, i] += w
        if j < n:
            H[row, j] -= w
        edges.append((i, j) if i < j else (j, i))
    H.flags.writeable = False  # handed over to the MeasurementMatrix without a copy
    label = _components(n + 1, edges)
    if any(label):  # not every node is in column 0's component
        unobserved = sorted(state[k] for k in range(n) if label[k] != label[n])
        raise UnobservableConfiguration(
            f"rank(H) < {n}: buses {unobserved} are not joined to slack bus "
            f"{net.slack} by metered branches, so the placement does not observe the full state"
        )
    return MeasurementMatrix(values=H, state_buses=state, edges=edges)
