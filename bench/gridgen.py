"""Seeded synthetic grid cases in the JSON formats ``fdilab.caseio`` reads.

A grid is a random spanning tree over buses 1..N (bus 1 is the slack)
plus extra branches between buses not yet joined. Every branch carries one
flow meter in its stored direction; further meters, reversed duplicates
of randomly chosen branches, bring the meter count to
``round(meters_per_state * (N - 1))``. The market has loads on most buses,
generators with twice the total demand in capacity, and flow limits on
some branches set above the flows of a proportional reference dispatch, so
that dispatch stays feasible and the LP has a solution.

Everything is drawn from ``numpy.random.default_rng([seed, N])``: the same
seed and parameters give byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


EXTRA_BRANCH_RATIO = 0.4      # extra branches per tree branch
X_PU_RANGE = (0.02, 0.12)
SIGMAS = (0.005, 0.01, 0.02)
LOAD_SHARE = 0.7              # share of buses with a load
LOAD_MW_RANGE = (10.0, 150.0)
GEN_SHARE = 0.1               # share of buses with a generator
PRICE_RANGE = (10.0, 40.0)
CAPACITY_MARGIN = 2.0         # total pmax / total demand
LIMITED_SHARE = 0.15          # share of branches with a flow limit
LIMIT_HEADROOM = 1.25         # limit / |reference flow|
LIMIT_FLOOR_MW = 20.0


@dataclass(frozen=True)
class GridParams:
    buses: int
    meters_per_state: float       # m / n, reversed duplicates included


@dataclass(frozen=True)
class Grid:
    network: dict
    meters: dict
    market: dict
    theta_ref: np.ndarray   # reference angles of the non-slack buses, rad


def _tree_and_extra(rng, n_bus: int, n_extra: int) -> list[tuple[int, int]]:
    edges = []
    seen = set()
    for k in range(2, n_bus + 1):
        parent = int(rng.integers(1, k))
        edges.append((parent, k) if rng.random() < 0.5 else (k, parent))
        seen.add(frozenset((parent, k)))
    while len(edges) < n_bus - 1 + n_extra:
        i, j = (int(v) for v in rng.integers(1, n_bus + 1, size=2))
        key = frozenset((i, j))
        if i == j or key in seen:
            continue
        seen.add(key)
        edges.append((i, j))
    return edges


def _reference_flows(n_bus, edges, xs, injections_mw, base_mva):
    """DC power flow with bus 1 as slack: angles (rad) and branch flows (MW)."""
    B = np.zeros((n_bus, n_bus))
    for (i, j), x in zip(edges, xs):
        b = 1.0 / x
        B[i - 1, i - 1] += b
        B[j - 1, j - 1] += b
        B[i - 1, j - 1] -= b
        B[j - 1, i - 1] -= b
    theta = np.zeros(n_bus)
    theta[1:] = np.linalg.solve(B[1:, 1:], injections_mw[1:] / base_mva)
    flows = np.array([base_mva * (theta[i - 1] - theta[j - 1]) / x for (i, j), x in zip(edges, xs)])
    return theta, flows


def make_grid(seed: int, params: GridParams) -> Grid:
    """Draw one grid, its meters, its market and reference angles from the seed."""
    n_bus = params.buses
    rng = np.random.default_rng([seed, n_bus])
    base_mva = 100.0

    n_extra = round(EXTRA_BRANCH_RATIO * (n_bus - 1))
    edges = _tree_and_extra(rng, n_bus, n_extra)
    xs = [round(float(v), 4) for v in rng.uniform(*X_PU_RANGE, size=len(edges))]

    meters = [{"branch": [i, j], "sigma": float(rng.choice(SIGMAS))} for i, j in edges]
    n_dup = round(params.meters_per_state * (n_bus - 1)) - len(edges)
    if n_dup < 0 or n_dup > len(edges):
        raise ValueError(f"meters_per_state {params.meters_per_state} is out of reach for {len(edges)} branches")
    for b in sorted(rng.choice(len(edges), size=n_dup, replace=False)):
        i, j = edges[b]
        meters.append({"branch": [j, i], "sigma": float(rng.choice(SIGMAS))})

    demand = np.zeros(n_bus + 1)
    load_buses = np.flatnonzero(rng.random(n_bus) < LOAD_SHARE) + 1
    demand[load_buses] = np.round(rng.uniform(*LOAD_MW_RANGE, size=len(load_buses)), 1)
    total_demand = demand.sum()
    n_gen = max(3, round(GEN_SHARE * n_bus))
    gen_buses = sorted(int(b) for b in rng.choice(np.arange(1, n_bus + 1), size=n_gen, replace=False))
    shares = rng.uniform(0.5, 1.5, size=n_gen)
    pmax = np.round(CAPACITY_MARGIN * total_demand * shares / shares.sum(), 1)
    prices = np.round(rng.uniform(*PRICE_RANGE, size=n_gen), 2)

    # Proportional dispatch: every unit at the same fraction of its capacity.
    injections = -demand[1:].copy()
    for bus, cap in zip(gen_buses, pmax):
        injections[bus - 1] += cap * total_demand / pmax.sum()
    theta, flows = _reference_flows(n_bus, edges, xs, injections, base_mva)
    limited = set(int(b) for b in rng.choice(len(edges), size=round(LIMITED_SHARE * len(edges)), replace=False))

    branches = []
    for b, ((i, j), x) in enumerate(zip(edges, xs)):
        limit = None
        if b in limited:
            limit = round(max(LIMIT_FLOOR_MW, LIMIT_HEADROOM * abs(flows[b])), 1)
        branches.append({"from": i, "to": j, "x_pu": x, "limit_mw": limit})

    network = {"base_mva": base_mva, "slack": 1, "buses": list(range(1, n_bus + 1)), "branches": branches}
    market = {
        "generators": [
            {"bus": bus, "price": float(price), "pmax": float(cap), "pmin": 0.0}
            for bus, price, cap in zip(gen_buses, prices, pmax)
        ],
        "loads": [{"bus": int(b), "mw": float(demand[b])} for b in load_buses],
    }
    return Grid(network=network, meters={"meters": meters}, market=market, theta_ref=theta[1:])


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def write_grid(grid: Grid, directory: Path) -> dict[str, Path]:
    """Write network.json, meters.json and market.json; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    return {
        "network": _write_json(directory / "network.json", grid.network),
        "meters": _write_json(directory / "meters.json", grid.meters),
        "market": _write_json(directory / "market.json", grid.market),
    }
