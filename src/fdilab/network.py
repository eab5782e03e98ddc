"""Network and metering topology for the DC power-flow model.

Buses carry only a voltage angle (flat 1 p.u. magnitudes); a branch with
reactance x carries the real-power flow (theta_from - theta_to) / x in
per-unit. One bus is the slack with its angle fixed at zero, so a system
of b buses has n = b - 1 state variables.

``build_h_matrix`` assembles H, which maps the state vector onto the m
metered branch flows, z = H x + e, as its weighted meter graph. Whether H has
full column rank is a property of the metered graph alone (Krumpholz,
Clements and Davis, 1980), so one component walk decides the connectivity
of the network, the observability of a placement and the attack null space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

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
_BOOLS = frozenset((bool, np.bool_))  # True == 1, but a boolean is no id or index
_INTP_MAX = np.iinfo(np.intp).max


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
    """Validated, immutable bus/branch graph with a designated slack bus.

    ``position`` maps each bus id to its row in ``buses``, read-only, and ``state_buses``
    lists the non-slack buses in input order, the state's column order. The numeric layers
    read the branches as read-only arrays, one row per branch in input order: ``ends``, the
    positions in ``buses`` of its (from, to) buses; ``columns``, their state columns, the
    slack being column n; ``reactances``; and ``limits_mw``, NaN for an unlimited line."""

    buses: tuple[BusId, ...]
    branches: tuple[Branch, ...]
    slack: BusId
    base_mva: float = 100.0
    position: MappingProxyType = field(init=False, repr=False, compare=False)
    state_buses: tuple[BusId, ...] = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    reactances: np.ndarray = field(init=False, repr=False, compare=False)
    limits_mw: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        node: dict[BusId, int] = {}  # each bus's node in the graph walk
        for b in self.buses:
            if type(b) is not int or b <= 0:  # bool is not int here
                raise ValidationError(f"bus id {b!r} must be a positive integer")
            if b >= 2**63:  # reports keep bus ids in int64 arrays
                raise ValidationError(f"bus id {b} must be below 2**63")
            if b in node:
                raise DuplicateBus(f"bus id {b} appears more than once")
            node[b] = len(node)
        if type(self.slack) in _BOOLS or self.slack not in node:
            raise ValidationError(f"slack bus {self.slack} is not in the bus list")
        if not (self.base_mva > 0 and all(math.isfinite(self.base_mva / br.x_pu) for br in self.branches)):
            raise ValidationError(f"base_mva {self.base_mva} must be > 0, and finite over every reactance")
        # each branch's (from, to) nodes, flat: numpy reads a flat list far faster than pairs; -1 for no bus here
        nodes = [-1 if type(b) in _BOOLS else node.get(b, -1) for br in self.branches for b in (br.from_bus, br.to_bus)]
        if -1 in nodes:
            k = nodes.index(-1)  # the first end that names no bus of the list
            br = self.branches[k // 2]
            bus = (br.from_bus, br.to_bus)[k % 2]
            raise ValidationError(f"branch {br.from_bus}-{br.to_bus} references unknown bus {bus}")
        label = _components(len(node), zip(nodes[::2], nodes[1::2]))
        if any(label):  # not every node is in node 0's component
            missing = sorted(b for b, k in zip(node, label) if k != label[node[self.slack]])
            raise DisconnectedGraph(f"buses {missing} are not connected to slack bus {self.slack}")
        ends, slack = np.array(nodes, dtype=np.intp).reshape(-1, 2), node[self.slack]
        object.__setattr__(self, "position", MappingProxyType(node))
        object.__setattr__(self, "state_buses", self.buses[:slack] + self.buses[slack + 1:])
        columns = ends - (ends > slack)
        columns[ends == slack] = len(node) - 1  # the slack's column, n
        reactances = np.array([br.x_pu for br in self.branches], dtype=float)
        limits = np.array([math.nan if br.limit_mw is None else br.limit_mw for br in self.branches], dtype=float)
        for name, values in ("ends", ends), ("columns", columns), ("reactances", reactances), ("limits_mw", limits):
            values.flags.writeable = False
            object.__setattr__(self, name, values)


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
        if type(self.orientation) in _BOOLS or self.orientation not in (+1, -1):
            raise ValidationError(f"meter orientation {self.orientation} must be +1 or -1")
        if not self.sigma > 0:
            raise ValidationError(f"meter sigma {self.sigma} must be > 0")


@dataclass(frozen=True)
class MeterConfig:
    """Meters, with their ``branch``, ``orientation`` and ``sigmas`` as read-only columns, one
    row per meter. ``branch`` is -1 where a record's index is no intp integer >= 0, such as
    True, 1.0 or 2**64; ``build_h_matrix`` refuses it by name."""

    meters: tuple[Meter, ...]
    branch: np.ndarray = field(init=False, repr=False, compare=False)
    orientation: np.ndarray = field(init=False, repr=False, compare=False)
    sigmas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "meters", tuple(self.meters))
        if not self.meters:
            raise ValidationError("meter configuration is empty")
        # a list per column: a tuple per meter would set off the garbage collector's passes over the heap
        index = [m.branch if (type(m.branch) is int or isinstance(m.branch, np.integer)) and 0 <= m.branch <= _INTP_MAX
                 else -1 for m in self.meters]  # a bool is neither
        object.__setattr__(self, "branch", _read_only(index, np.intp))
        object.__setattr__(self, "orientation", _read_only([m.orientation for m in self.meters]))
        object.__setattr__(self, "sigmas", _read_only([m.sigma for m in self.meters]))

    def __len__(self) -> int:
        return len(self.meters)


def _read_only(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype``, so a caller's array is never frozen."""
    values = np.array(values, dtype=dtype)
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """m x n matrix mapping non-slack bus angles to metered branch flows: the meter graph.

    Meter i reads ``weights[i] * (theta_a - theta_b)``, +-1/x times the angle difference across
    ``(a, b) = edges[i]``, 0 <= a < b <= n, the slack being column n; ``dot`` forms H x from
    them, and no dense H is kept. Both arrays are read-only copies; ``_model`` is the slot of
    ``WlsModel.of``."""

    state_buses: tuple[BusId, ...]
    edges: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    _model: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n, edges, weights = len(self.state_buses), np.asarray(self.edges), _read_only(self.weights)
        if edges.dtype.kind != "i" or edges.shape != weights.shape + (2,):
            raise ValidationError(f"H needs (m, 2) int edges and m weights, got {edges.shape}, {weights.shape}")
        a, b = edges.T
        if not np.all((0 <= a) & (a < b) & (b <= n) & np.isfinite(weights) & (weights != 0)):
            raise ValidationError(f"each meter needs an edge 0 <= a < b <= {n} and a finite, nonzero weight")
        object.__setattr__(self, "edges", _read_only(edges, int))
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        return len(self.state_buses)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """H x along the last axis of the float array x, (..., n) -> (..., m): see ``_dot``."""
        return _dot(self.edges, self.weights, x)

    def state_index(self, bus: BusId) -> int:
        if type(bus) in _BOOLS or bus not in self.state_buses:
            raise ValidationError(f"bus {bus} has no state column (slack or unknown)")
        return self.state_buses.index(bus)


def _dot(edges: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The flows ``w * x[a] - w * x[b]`` of the meter graph ``(edges, weights)`` along the last
    axis of x, padded with the slack's angle 0 at column n: two gathers, no dense H. A meter whose
    two angles are equal reads exactly 0, and an entry of an identity x is exactly +-w or 0."""
    padded = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    padded[..., :-1] = x
    return weights * padded.take(edges[:, 0], axis=-1) - weights * padded.take(edges[:, 1], axis=-1)


def build_h_matrix(net: NetworkModel, meters: MeterConfig) -> MeasurementMatrix:
    """Assemble H for the given meter placement.

    The row of a meter on branch (i, j) oriented i->j carries +1/x in the
    column of theta_i and -1/x in the column of theta_j; the slack bus has
    no column. Raises UnobservableConfiguration when rank(H) < n, which
    holds exactly when some bus is not joined to the slack by metered
    branches: a walk over them decides it, and no factorisation of H is
    made. A placement that is observable but badly conditioned passes here
    and fails where its gain is factored, as SingularGainMatrix. H is the
    walked graph: one column pair and one weight per meter, the slack being column n.
    """
    n = len(net.state_buses)
    branch = _meter_branches(net, meters)
    edges = net.columns[branch]  # each meter's (from, to) columns, put in order below
    weights = np.where(edges[:, 0] < edges[:, 1], meters.orientation, -meters.orientation) / net.reactances[branch]
    edges.sort(axis=1)
    label = _components(n + 1, edges.tolist())
    if any(label):  # not every node is in column 0's component
        unobserved = sorted(net.state_buses[k] for k in range(n) if label[k] != label[n])
        raise UnobservableConfiguration(
            f"rank(H) < {n}: buses {unobserved} are not joined to slack bus "
            f"{net.slack} by metered branches, so the placement does not observe the full state"
        )
    return MeasurementMatrix(net.state_buses, edges, weights)


def _meter_branches(net: NetworkModel, meters: MeterConfig) -> np.ndarray:
    """The meters' ``branch`` column; an index that names no branch of ``net``, such as 1.5,
    True or an int of any size, is an UnknownBranch naming the first such meter."""
    bad = np.flatnonzero((meters.branch < 0) | (meters.branch >= len(net.branches)))
    if bad.size:
        raise UnknownBranch(f"meter {bad[0]} references branch index {meters.meters[bad[0]].branch}")
    return meters.branch
