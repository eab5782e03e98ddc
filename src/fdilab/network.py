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
import operator
from dataclasses import dataclass, field
from functools import cached_property
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


@dataclass(frozen=True, init=False, eq=False)
class NetworkModel:
    """Validated, immutable bus/branch graph with a designated slack bus, kept as columns.

    ``position`` maps each bus id to its row in ``buses``, read-only, and ``state_buses``
    lists the non-slack buses in input order, the state's column order. The branches are
    read-only arrays, one row per branch in input order: ``ends``, the positions in ``buses``
    of its (from, to) buses; ``columns``, their state columns, the slack being column n;
    ``reactances``; and ``limits_mw``, NaN for an unlimited line. ``branches`` views them as
    ``Branch`` records: the ones a model was built from, or, for a model read by
    ``from_columns``, records formed on first access. The model compares by identity, as it
    holds arrays."""

    buses: tuple[BusId, ...]
    slack: BusId
    base_mva: float = 100.0
    position: MappingProxyType = field(init=False, repr=False)
    state_buses: tuple[BusId, ...] = field(init=False, repr=False)
    ends: np.ndarray = field(init=False, repr=False)
    columns: np.ndarray = field(init=False, repr=False)
    reactances: np.ndarray = field(init=False, repr=False)
    limits_mw: np.ndarray = field(init=False, repr=False)

    def __init__(self, buses, branches, slack, base_mva=100.0):
        self.__dict__["branches"] = branches = tuple(branches)
        self._read(buses, *([getattr(br, key) for br in branches] for key in Branch.__slots__), slack, base_mva)

    @classmethod
    def from_columns(cls, buses, from_bus: list, to_bus: list, x_pu: list, limit_mw: list, slack,
                     base_mva=100.0) -> NetworkModel:
        """The model of branches given as one list per ``Branch`` field, one entry per branch in
        input order, checked as a model of those records is."""
        return cls.__new__(cls)._read(buses, from_bus, to_bus, x_pu, limit_mw, slack, base_mva)

    @cached_property
    def state_bus_ids(self) -> np.ndarray:
        """``state_buses`` as a read-only int array, formed once and shared by every report of the model."""
        return _read_only(self.state_buses, int)

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        limits = [None if math.isnan(limit) else limit for limit in self.limits_mw.tolist()]
        return tuple(Branch(self.buses[i], self.buses[j], x, limit)
                     for (i, j), x, limit in zip(self.ends.tolist(), self.reactances.tolist(), limits))

    def _read(self, buses, from_bus, to_bus, x_pu, limit_mw, slack, base_mva) -> NetworkModel:
        """Check the columns, each branch's own checks first, as its record is read before the
        network, and keep them. Whole-column checks find a fault; the branches are then checked
        one by one, so the first refused one's error is raised."""
        buses, limits = tuple(buses), np.array(limit_mw, dtype=float)  # None: NaN
        least = min(x_pu, default=math.inf)
        # a NaN or infinite reactance makes the sum NaN or infinite, which min may not show
        if any(map(operator.eq, from_bus, to_bus)) or (limits <= 0).any() or not (
                least > 0 and math.isfinite(1.0 / float(least)) and math.isfinite(sum(x_pu))):
            for record in zip(from_bus, to_bus, x_pu, limit_mw):
                Branch(*record)
        node: dict[BusId, int] = {}  # each bus's node in the graph walk
        for b in buses:
            if not _is_int(b) or b <= 0:
                raise ValidationError(f"bus id {b!r} must be a positive integer")
            if b >= 2**63:  # reports keep bus ids in int64 arrays
                raise ValidationError(f"bus id {b} must be below 2**63")
            if b in node:
                raise DuplicateBus(f"bus id {b} appears more than once")
            node[int(b)] = len(node)
        if not _is_int(slack) or slack not in node:
            raise ValidationError(f"slack bus {slack} is not in the bus list")
        if not (base_mva > 0 and math.isfinite(base_mva / least)):  # the largest base_mva / x_pu
            raise ValidationError(f"base_mva {base_mva} must be > 0, and finite over every reactance")
        head, tail = _nodes(node, from_bus), _nodes(node, to_bus)
        if None in head or None in tail:
            k = next(k for k, pair in enumerate(zip(head, tail)) if None in pair)  # the first branch with one
            bus = from_bus[k] if head[k] is None else to_bus[k]
            raise ValidationError(f"branch {from_bus[k]}-{to_bus[k]} references unknown bus {bus}")
        label = _components(len(node), zip(head, tail))
        if any(label):  # not every node is in node 0's component
            missing = sorted(b for b, k in zip(node, label) if k != label[node[slack]])
            raise DisconnectedGraph(f"buses {missing} are not connected to slack bus {slack}")
        row = node[slack]
        ends, reactances = np.array((head, tail), dtype=np.intp).T.copy(), np.array(x_pu, dtype=float)
        columns = ends - (ends > row)
        columns[ends == row] = len(node) - 1  # the slack's column, n
        for values in ends, columns, reactances, limits:
            values.flags.writeable = False
        buses = tuple(node)  # each id as a Python int, a numpy integer one included
        self.__dict__.update(buses=buses, slack=int(slack), base_mva=base_mva, position=MappingProxyType(node),
                             state_buses=buses[:row] + buses[row + 1:], ends=ends, columns=columns,
                             reactances=reactances, limits_mw=limits)
        return self


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer: a bool, which equals 0 or 1, and a float,
    which may equal an int, are neither, so neither is a bus id or an index."""
    return type(value) is int or isinstance(value, np.integer)


def _nodes(node: dict, ids: list) -> list:
    """The node of each id in ``ids``, None where it names no bus of ``node``."""
    if not set(map(type, ids)) <= {int}:  # most columns
        ids = [b if _is_int(b) else None for b in ids]
    return list(map(node.get, ids))


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
        if isinstance(self.orientation, (bool, np.bool_)) or self.orientation not in (+1, -1):  # True == 1
            raise ValidationError(f"meter orientation {self.orientation} must be +1 or -1")
        if not self.sigma > 0:
            raise ValidationError(f"meter sigma {self.sigma} must be > 0")


@dataclass(frozen=True, init=False, eq=False)
class MeterConfig:
    """Meters, kept as read-only columns, one row per meter: ``branch``, ``orientation`` and
    ``sigmas``. ``branch`` is -1 where a record's index is no intp integer >= 0, such as True,
    1.0 or 2**64; ``build_h_matrix`` refuses it by name. ``meters`` views them as ``Meter``
    records: the ones a configuration was built from, or, for one read by ``from_columns``,
    records formed on first access. The configuration compares by identity."""

    branch: np.ndarray = field(init=False, repr=False)
    orientation: np.ndarray = field(init=False, repr=False)
    sigmas: np.ndarray = field(init=False, repr=False)

    def __init__(self, meters):
        self.__dict__["meters"] = meters = tuple(meters)
        # a list per column: a tuple per meter would set off the garbage collector's passes over the heap
        index = [m.branch if _is_int(m.branch) and 0 <= m.branch <= _INTP_MAX else -1 for m in meters]
        self._read(index, [m.orientation for m in meters], [m.sigma for m in meters])

    @classmethod
    def from_columns(cls, branch, orientation, sigmas: list) -> MeterConfig:
        """The configuration of meters given as one column per ``Meter`` field, one entry per meter,
        each branch an index >= 0, checked as a configuration of those records is."""
        return cls.__new__(cls)._read(branch, orientation, sigmas)

    @cached_property
    def meters(self) -> tuple[Meter, ...]:
        return tuple(Meter(b, int(o), s) for b, o, s in zip(self.branch.tolist(), self.orientation.tolist(),
                                                            self.sigmas.tolist()))

    def _read(self, branch, orientation, sigmas: list) -> MeterConfig:
        if not sigmas:
            raise ValidationError("meter configuration is empty")
        if not min(sigmas) > 0 or math.isnan(sum(sigmas)):  # each meter's own checks find the first refused
            for record in zip(branch, orientation, sigmas):
                Meter(*record)
        self.__dict__.update(branch=_read_only(branch, np.intp), orientation=_read_only(orientation),
                             sigmas=_read_only(sigmas))
        return self

    def __len__(self) -> int:
        return len(self.sigmas)


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
        if not _is_int(bus) or bus not in self.state_buses:
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
    bad = np.flatnonzero((meters.branch < 0) | (meters.branch >= len(net.ends)))
    if bad.size:
        raise UnknownBranch(f"meter {bad[0]} references branch index {meters.meters[bad[0]].branch}")
    return meters.branch
