from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from fdilab import caseio, estimation
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


def dense(H):
    """H as a dense m x n array, formed by ``H.dot`` from its meter graph; each entry is exactly +-w or 0."""
    return H.dot(np.eye(H.n)).T


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


def empty_omega_memo():
    """Forget the diag(Omega) that ``WlsModel.omega_diagonal`` formed last, so the next one is computed."""
    estimation._last_omega = (None, None)


@pytest.fixture(autouse=True)
def cold_omega_memo():
    """Each test starts with an empty diag(Omega) memo, so its ``factorisations`` and
    ``inversions`` counts do not depend on the tests that ran before it."""
    empty_omega_memo()


def _counting(monkeypatch, module, name):
    """Patch ``module.name`` to append the shape of its first argument to the returned list at each call."""
    calls = []
    original = getattr(module, name)

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def factorisations(monkeypatch):
    """The shape of each gain Cholesky-factored through fdilab.estimation, in call order.

    The model imports scipy.linalg at its first factorisation and looks
    cho_factor up on it at each call, so the patch goes on the module itself.
    """
    return _counting(monkeypatch, scipy.linalg, "cho_factor")


@pytest.fixture
def inversions(monkeypatch):
    """The shape of each factor that ``WlsModel.omega_diagonal`` inverts with LAPACK potri, in call order."""
    return _counting(monkeypatch, scipy.linalg.lapack, "dpotri")
