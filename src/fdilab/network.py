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
            if b >= 2**63:  # reports keep bus ids in int64 arrays
                raise ValidationError(f"bus id {b} must be below 2**63")
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
        try:
            return self.state_buses.index(bus)
        except ValueError:
            raise ValidationError(f"bus {bus} has no state column (slack or unknown)") from None


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
    state = net.state_buses
    n = len(state)
    col = {b: k for k, b in enumerate((*state, net.slack))}  # the slack, node n, has no column of H
    edges, weights = [], []
    for row, meter in enumerate(meters.meters):
        if not 0 <= meter.branch < len(net.branches):
            raise UnknownBranch(f"meter {row} references branch index {meter.branch}")
        br = net.branches[meter.branch]
        w = meter.orientation / br.x_pu
        i, j = col[br.from_bus], col[br.to_bus]
        edges.append((i, j) if i < j else (j, i))
        weights.append(w if i < j else -w)
    label = _components(n + 1, edges)
    if any(label):  # not every node is in column 0's component
        unobserved = sorted(state[k] for k in range(n) if label[k] != label[n])
        raise UnobservableConfiguration(
            f"rank(H) < {n}: buses {unobserved} are not joined to slack bus "
            f"{net.slack} by metered branches, so the placement does not observe the full state"
        )
    return MeasurementMatrix(state, edges, weights)
