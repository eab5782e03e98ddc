from pathlib import Path

import numpy as np
import pytest

from fdilab import caseio
from fdilab.estimation import WeightModel
from fdilab.network import Branch, Meter, MeterConfig, NetworkModel, build_h_matrix

CASES_5BUS = Path(__file__).resolve().parents[1] / "cases" / "5bus"

# Reference WLS solution for the shipped 6-measurement vector with uniform
# sigma = 0.01, frozen from an independent dense solve of the normal
# equations (explicit inverse of H' R^-1 H).
TABLE_XHAT = np.array(
    [-0.027264373926555986, 0.007901038684877732, -0.03669792263024454, -0.04398114827840026]
)
TABLE_J = 0.13175758567105442


@pytest.fixture(scope="session")
def net5():
    return caseio.parse_network(CASES_5BUS / "network.json")


@pytest.fixture(scope="session")
def net5_limited():
    return caseio.parse_network(CASES_5BUS / "network_limit34.json")


@pytest.fixture(scope="session")
def meters5(net5):
    return caseio.parse_meters(CASES_5BUS / "meters.json", net5)


@pytest.fixture(scope="session")
def h5(net5, meters5):
    return build_h_matrix(net5, meters5)


@pytest.fixture(scope="session")
def z5():
    return caseio.parse_measurements(CASES_5BUS / "measurements.json")


@pytest.fixture(scope="session")
def w5(meters5):
    return WeightModel(meters5.sigmas)


@pytest.fixture(scope="session")
def one_state():
    """``one_state(k)``: H of buses 1 (slack) and 2 on one branch with x_pu = 1, metered k times.

    Every row is [-1], the one-state system that hand-written H used to stand for.
    """
    net = NetworkModel(buses=(1, 2), branches=(Branch(1, 2, 1.0),), slack=1)
    return lambda k=1: build_h_matrix(net, MeterConfig(tuple(Meter(branch=0) for _ in range(k))))


@pytest.fixture(scope="session")
def market5(net5):
    return caseio.parse_market(CASES_5BUS / "market.json", net5)
