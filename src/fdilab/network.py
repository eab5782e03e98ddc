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
    """Validated, immutable bus/branch graph with a designated slack bus.

    ``branches`` holds the ``Branch`` records in input order, each checked as it was made.
    ``position`` maps each bus id to its row in ``buses``, read-only, and ``state_buses``
    lists the non-slack buses in input order, the state's column order. The numeric layers
    read the branches as read-only arrays, one row per branch in input order: ``ends``, the
    positions in ``buses`` of its (from, to) buses; ``columns``, their state columns, the
    slack being column n; ``reactances``; and ``limits_mw``, NaN for an unlimited line. The
    model compares by identity, as it holds arrays."""

    buses: tuple[BusId, ...]
    branches: tuple[Branch, ...] = field(repr=False)
    slack: BusId
    base_mva: float = 100.0
    position: MappingProxyType = field(init=False, repr=False)
    state_buses: tuple[BusId, ...] = field(init=False, repr=False)
    ends: np.ndarray = field(init=False, repr=False)
    columns: np.ndarray = field(init=False, repr=False)
    reactances: np.ndarray = field(init=False, repr=False)
    limits_mw: np.ndarray = field(init=False, repr=False)

    def __init__(self, buses, branches, slack, base_mva=100.0):
        branches = tuple(branches)
        from_bus, to_bus = [br.from_bus for br in branches], [br.to_bus for br in branches]
        x_pu = [br.x_pu for br in branches]
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
        if not (base_mva > 0 and math.isfinite(base_mva / min(x_pu, default=math.inf))):  # the largest base_mva / x_pu
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
        limits = np.array([br.limit_mw for br in branches], dtype=float)  # None: NaN
        columns = ends - (ends > row)
        columns[ends == row] = len(node) - 1  # the slack's column, n
        for values in ends, columns, reactances, limits:
            values.flags.writeable = False
        buses = tuple(node)  # each id as a Python int, a numpy integer one included
        self.__dict__.update(buses=buses, slack=int(slack), base_mva=base_mva, branches=branches,
                             position=MappingProxyType(node), state_buses=buses[:row] + buses[row + 1:], ends=ends,
                             columns=columns, reactances=reactances, limits_mw=limits)

    @cached_property
    def state_bus_ids(self) -> np.ndarray:
        """``state_buses`` as a read-only int array, formed once and shared by every report of the model."""
        return _read_only(self.state_buses, int)

    @cached_property
    def branch_bus_ends(self) -> np.ndarray:
        """The (from, to) bus ids of each branch as a read-only (branches, 2) int array, formed once and
        shared by every report of the model and by ``dispatch_report``."""
        return _read_only(np.array(self.buses)[self.ends], int)


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
    """Meters: ``meters`` holds the ``Meter`` records, each checked as it was made, and
    ``branch``, ``orientation`` and ``sigmas`` their read-only columns, one row per meter.
    ``branch`` is -1 where a record's index is no intp integer >= 0, such as True, 1.0 or
    2**64; ``build_h_matrix`` refuses it by name. The configuration compares by identity."""

    meters: tuple[Meter, ...] = field(repr=False)
    branch: np.ndarray = field(init=False, repr=False)
    orientation: np.ndarray = field(init=False, repr=False)
    sigmas: np.ndarray = field(init=False, repr=False)

    def __init__(self, meters):
        meters = tuple(meters)
        if not meters:
            raise ValidationError("meter configuration is empty")
        # a list per column: a tuple per meter would set off the garbage collector's passes over the heap
        index = [m.branch if _is_int(m.branch) and 0 <= m.branch <= _INTP_MAX else -1 for m in meters]
        self.__dict__.update(meters=meters, branch=_read_only(index, np.intp),
                             orientation=_read_only([m.orientation for m in meters]),
                             sigmas=_read_only([m.sigma for m in meters]))

    def __len__(self) -> int:
        return len(self.sigmas)

    @cached_property
    def weight_model(self) -> WeightModel:
        """The meter set's one WeightModel, so every estimate of one meter set shares one read-only
        sigmas array; a sigma whose square is not finite is a ValidationError on each read."""
        return WeightModel(self.sigmas)


@dataclass(frozen=True)
class WeightModel:
    """Per-meter standard deviations (per-unit). All strictly positive, with finite squares; read-only."""

    sigmas: np.ndarray

    def __post_init__(self):
        sig = self.sigmas
        # a read-only 1-D float array that owns its data, such as MeterConfig.sigmas, is kept as it is
        if not (type(sig) is np.ndarray and sig.dtype == float and sig.ndim == 1
                and sig.flags.owndata and not sig.flags.writeable):
            sig = np.atleast_1d(_read_only(sig))
        if sig.ndim != 1:
            raise ValidationError("sigmas must be a 1-D vector")
        if not (np.all(np.isfinite(sig)) and np.all(sig > 0)):
            raise ValidationError("all sigmas must be finite and > 0")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(sig**2)):
                raise ValidationError("all variances sigma**2 must be finite")
        object.__setattr__(self, "sigmas", sig)


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
