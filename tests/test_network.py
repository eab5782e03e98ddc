import json
import re

import numpy as np
import pytest

from conftest import dense
from fdilab import caseio
from fdilab.attack import random_constrained_attack, targeted_attack
from fdilab.errors import (
    DisconnectedGraph,
    DuplicateBus,
    NonPositiveReactance,
    NumericalError,
    UnknownBranch,
    UnknownBus,
    UnobservableConfiguration,
    ValidationError,
)
from fdilab.estimation import WeightModel, wls_estimate
from fdilab.market import DispatchCase, DispatchResult, Generator
from fdilab.network import (
    Branch,
    MeasurementMatrix,
    Meter,
    MeterConfig,
    NetworkModel,
    build_h_matrix,
)
from fdilab.scenario import GrossErrorSpec, _build_attack_vector


def two_bus(x=1.0):
    return NetworkModel(
        buses=(1, 2), branches=(Branch(1, 2, x),), slack=1, base_mva=100.0
    )


def test_five_bus_case_builds(net5):
    assert len(net5.state_buses) == 4
    assert net5.state_buses == (2, 3, 4, 5)
    assert len(net5.branches) == 6
    assert net5.slack == 1
    assert net5.base_mva == 100.0
    assert [br.x_pu for br in net5.branches] == [0.03, 0.05, 0.05, 0.08, 0.05, 0.08]


def test_two_bus_minimal_case():
    net = NetworkModel(buses=(1, 2), branches=(Branch(1, 2, 1.0),), slack=1)
    assert len(net.state_buses) == 1


def test_isolated_bus_rejected():
    # drop every branch touching bus 5
    branches = (Branch(1, 2, 0.03), Branch(1, 3, 0.05), Branch(2, 4, 0.05), Branch(3, 4, 0.05))
    with pytest.raises(DisconnectedGraph, match=r"\[5\]"):
        NetworkModel(buses=(1, 2, 3, 4, 5), branches=branches, slack=1)


def test_cut_off_buses_are_named_sorted_wherever_the_slack_sits():
    # bus 7 is listed first, so it is the first node of the walk, and it is cut off
    branches = (Branch(9, 3, 0.1), Branch(3, 1, 0.1), Branch(4, 7, 0.1))
    with pytest.raises(DisconnectedGraph) as info:
        NetworkModel(buses=(7, 3, 9, 1, 4), branches=branches, slack=9)
    assert str(info.value) == "buses [4, 7] are not connected to slack bus 9"
    net = NetworkModel(buses=(7, 3, 9, 1, 4), branches=(*branches, Branch(1, 4, 0.1)), slack=9)
    with pytest.raises(UnobservableConfiguration) as info:
        build_h_matrix(net, MeterConfig((Meter(branch=2), Meter(branch=0), Meter(branch=1))))
    assert str(info.value) == (
        "rank(H) < 4: buses [4, 7] are not joined to slack bus 9 by metered branches, "
        "so the placement does not observe the full state"
    )
    for ends, unknown in (((8, 7), 8), ((7, 8), 8), ((5, 8), 5)):
        with pytest.raises(ValidationError) as info:
            NetworkModel(buses=(7, 3, 9), branches=(Branch(9, 3, 0.1), Branch(*ends, 0.1)), slack=9)
        assert str(info.value) == f"branch {ends[0]}-{ends[1]} references unknown bus {unknown}"


def test_duplicate_bus_rejected():
    with pytest.raises(DuplicateBus):
        NetworkModel(buses=(1, 2, 2), branches=(Branch(1, 2, 1.0),), slack=1)


def test_nonpositive_reactance_rejected():
    for bad in (0.0, -0.05):
        with pytest.raises(NonPositiveReactance):
            Branch(1, 2, bad)


def test_reactance_without_finite_reciprocal_rejected():
    # 1 / 1e-320 overflows to inf; 1 / inf is a zero row that no walk could see
    for bad in (1e-320, float("inf")):
        with pytest.raises(ValidationError, match="branch 1-2: reactance") as info:
            Branch(1, 2, bad)
        assert not isinstance(info.value, NonPositiveReactance)
    with pytest.raises(ValidationError, match="branch 2-3"):
        NetworkModel(buses=(1, 2, 3), branches=(Branch(1, 2, 0.1), Branch(2, 3, 1e-320)), slack=1)


def test_self_loop_and_bad_limit_rejected():
    with pytest.raises(ValidationError):
        Branch(3, 3, 1.0)
    with pytest.raises(ValidationError):
        Branch(1, 2, 1.0, limit_mw=0.0)


def test_slack_must_exist():
    with pytest.raises(ValidationError):
        NetworkModel(buses=(1, 2), branches=(Branch(1, 2, 1.0),), slack=9)


def test_h_row_for_slack_adjacent_meter(h5):
    # meter 0 reads the flow out of the slack on the x = 0.03 branch
    np.testing.assert_allclose(dense(h5)[0], [-1 / 0.03, 0.0, 0.0, 0.0], rtol=1e-12)


def test_h_theta2_column(h5):
    col = dense(h5)[:, h5.state_index(2)]
    np.testing.assert_allclose(col, [-1 / 0.03, 0.0, 20.0, 12.5, 0.0, 0.0], rtol=1e-12)


def test_h_single_branch_unit_reactance():
    net = two_bus(x=1.0)
    H = build_h_matrix(net, MeterConfig((Meter(branch=0, orientation=+1, sigma=0.01),)))
    np.testing.assert_allclose(dense(H), [[-1.0]])


def test_h_rank_full(h5):
    assert np.linalg.matrix_rank(dense(h5)) == 4


def test_h_row_structure(net5, h5):
    # slack-adjacent rows have one nonzero entry; all others two, summing to zero
    for row, meter in enumerate(range(6)):
        br = net5.branches[meter]
        nz = np.flatnonzero(np.abs(dense(h5)[row]) > 0)
        if net5.slack in (br.from_bus, br.to_bus):
            assert len(nz) == 1
        else:
            assert len(nz) == 2
            assert abs(dense(h5)[row].sum()) < 1e-12


def test_h_column_structure(net5, meters5, h5):
    # per non-slack bus: column nonzeros are exactly +-1/x over metered incident branches
    for bus in net5.state_buses:
        expected = {}
        for meter in meters5.meters:
            br = net5.branches[meter.branch]
            if bus == br.from_bus:
                expected[meter.branch] = meter.orientation / br.x_pu
            elif bus == br.to_bus:
                expected[meter.branch] = -meter.orientation / br.x_pu
        col = dense(h5)[:, h5.state_index(bus)]
        for row, value in enumerate(col):
            if row in expected:
                assert value == pytest.approx(expected[row], rel=1e-12)
            else:
                assert value == 0.0


def _replaced(array, row, value):
    """A copy of ``array``, of a dtype that holds ``value``, with ``value`` at ``row``."""
    array = array.astype(np.result_type(array, np.asarray(value)))
    array[row] = value
    return array


@pytest.mark.parametrize(
    "edit",
    [
        lambda H: (H.edges[:, ::-1], H.weights),
        lambda H: (_replaced(H.edges, 2, [1, 1]), H.weights),
        lambda H: (_replaced(H.edges, 2, [-1, 2]), H.weights),
        lambda H: (_replaced(H.edges, 2, [0, 5]), H.weights),
        lambda H: (_replaced(H.edges, 2, [np.nan, 2]), H.weights),
        lambda H: (H.edges.astype(float), H.weights),
        lambda H: (H.edges, H.weights[:-1]),
        lambda H: (H.edges, _replaced(H.weights, 3, 0.0)),
        lambda H: (H.edges, _replaced(H.weights, 3, np.nan)),
        lambda H: (H.edges, _replaced(H.weights, 3, -np.inf)),
    ],
    ids=["reversed", "a == b", "a < 0", "b > n", "nan edge", "float edges", "weight short",
         "zero weight", "nan weight", "inf weight"],
)
def test_measurement_matrix_rejects_a_graph_outside_its_columns(h5, edit):
    with pytest.raises(ValidationError):
        MeasurementMatrix(h5.state_buses, *edit(h5))


def test_measurement_matrix_values_follow_its_graph(h5):
    # meter i reads weights[i] * (theta_a - theta_b), the slack being column n = 4
    H = MeasurementMatrix(h5.state_buses, h5.edges[::-1], h5.weights[::-1])
    assert np.array_equal(dense(H), dense(h5)[::-1])
    assert h5.edges[0].tolist() == [0, 4] and dense(h5)[0].tolist() == [h5.weights[0], 0.0, 0.0, 0.0]
    x = np.array([0.1, -0.2, 0.3, 0.05])
    w, (a, b) = h5.weights, h5.edges.T
    assert np.array_equal(h5.dot(x), w * np.append(x, 0.0)[a] - w * np.append(x, 0.0)[b])
    assert np.array_equal(h5.dot(np.stack((x, 2 * x))), np.stack((h5.dot(x), h5.dot(2 * x))))


def test_measurement_matrices_compare_by_identity(net5, meters5, h5):
    again = build_h_matrix(net5, meters5)
    assert h5 == h5 and again != h5
    assert len({h5, again}) == 2


def test_unknown_branch_in_meter_config(net5):
    with pytest.raises(UnknownBranch):
        build_h_matrix(net5, MeterConfig((Meter(branch=99),)))
    # the 5-bus case has branches 0..5; the first meter whose index names none is reported,
    # whatever its int size, never as numpy's OverflowError, and neither 1.5 nor 1.0 is read as branch 1
    for index in (6, -1, 2**63, -(2**70), 10**30, 1.5, 1.0, np.float64(1.0)):
        meters = MeterConfig((Meter(branch=0), Meter(branch=index), Meter(branch=-5)))
        with pytest.raises(UnknownBranch, match=f"^meter 1 references branch index {index}$"):
            build_h_matrix(net5, meters)


def test_numpy_integer_branch_indices_build_the_same_h(net5, meters5, h5):
    as_numpy = MeterConfig(tuple(Meter(np.int64(m.branch), m.orientation, m.sigma) for m in meters5.meters))
    H = build_h_matrix(net5, as_numpy)
    assert H.edges.tobytes() == h5.edges.tobytes() and H.weights.tobytes() == h5.weights.tobytes()
    assert H.state_buses == h5.state_buses


def test_unobservable_meter_placement(net5):
    # four copies of one meter cannot observe four states
    meters = MeterConfig(tuple(Meter(branch=0) for _ in range(4)))
    with pytest.raises(UnobservableConfiguration):
        build_h_matrix(net5, meters)


def test_unobservable_placement_names_the_unreached_buses(net5):
    # meters on 1-2 and 2-4 leave buses 3 and 5 unobserved, whatever the copies
    meters = MeterConfig((Meter(branch=0), Meter(branch=2), Meter(branch=2, orientation=-1)))
    with pytest.raises(UnobservableConfiguration, match=r"buses \[3, 5\]"):
        build_h_matrix(net5, meters)


def test_ill_conditioned_placement_fails_where_the_gain_is_factored():
    # connected chain, so every bus is observed, but the gain of 1e-8, 1e8, 0.1
    # reactances is numerically singular: the estimate, not H, raises
    net = NetworkModel(
        buses=(1, 2, 3, 4),
        branches=(Branch(1, 2, 1e-8), Branch(2, 3, 1e8), Branch(3, 4, 0.1)),
        slack=1,
    )
    meters = MeterConfig(tuple(Meter(branch=i) for i in (0, 1, 2, 0)))
    H = build_h_matrix(net, meters)
    with pytest.raises(NumericalError):
        wls_estimate(H, np.zeros(4), WeightModel(meters.sigmas))


def test_meter_orientation_flips_sign():
    net = two_bus(x=0.5)
    forward = build_h_matrix(net, MeterConfig((Meter(branch=0, orientation=+1),)))
    backward = build_h_matrix(net, MeterConfig((Meter(branch=0, orientation=-1),)))
    np.testing.assert_allclose(dense(forward), -dense(backward))
    np.testing.assert_allclose(dense(forward), [[-2.0]])
    with pytest.raises(ValidationError, match=r"^meter orientation 0 must be \+1 or -1$"):
        Meter(branch=0, orientation=0)


def _read_pairs(tmp_path, net, pairs):
    """(branch, orientation) of each meter in a meter file listing the bus pairs."""
    path = tmp_path / "meters.json"
    path.write_text(json.dumps({"meters": [{"branch": list(pair)} for pair in pairs]}))
    return [(m.branch, m.orientation) for m in caseio.parse_meters(path, net).meters]


def test_branch_index_lookup(net5, tmp_path):
    assert _read_pairs(tmp_path, net5, [(3, 4), (4, 3)]) == [(4, +1), (4, -1)]
    with pytest.raises(ValidationError, match=r"^meters\[1\]: no branch joins buses 1 and 5$"):
        _read_pairs(tmp_path, net5, [(3, 4), (1, 5)])


def test_branch_index_takes_the_first_parallel_branch_either_way(tmp_path):
    net = NetworkModel(
        buses=(1, 2, 3),
        branches=(Branch(2, 1, 0.1), Branch(1, 2, 0.2), Branch(2, 3, 0.1), Branch(2, 3, 0.3)),
        slack=1,
    )
    pairs = [(1, 2), (2, 1), (2, 3), (3, 2)]
    assert _read_pairs(tmp_path, net, pairs) == [(0, -1), (0, +1), (2, +1), (2, -1)]
    with pytest.raises(ValidationError, match=r"^meters\[0\]: no branch joins buses 1 and 3$"):
        _read_pairs(tmp_path, net, [(1, 3)])


def _chain():
    """Buses 1-2-3 with the slack at 3, so bus 1 has state column 0 and branch 1 exists."""
    net = NetworkModel(buses=(1, 2, 3), branches=(Branch(1, 2, 0.1), Branch(2, 3, 0.1)), slack=3)
    return net, build_h_matrix(net, MeterConfig((Meter(branch=0), Meter(branch=1))))


# each site that reads a bus id, an index or an orientation -> (the site, its error, its message)
ID_SITES = {
    "bus id": (lambda b: NetworkModel(buses=(b, 2), branches=(Branch(1, 2, 0.1),), slack=2),
               ValidationError, "bus id {flag!r} must be a positive integer"),
    "state index": (lambda b: _chain()[1].state_index(b), ValidationError, "bus {flag} has no state column (slack or unknown)"),
    "meter branch": (lambda b: build_h_matrix(_chain()[0], MeterConfig((Meter(branch=0), Meter(branch=b)))),
                     UnknownBranch, "meter 1 references branch index {flag}"),
    "meter orientation": (lambda b: Meter(branch=0, orientation=b), ValidationError, "meter orientation {flag} must be +1 or -1"),
    "controlled meter": (lambda b: random_constrained_attack(_chain()[1], [b, 3, 5]),
                         ValidationError, "controlled meter index {flag} is not an integer"),
    "pinned state": (lambda b: targeted_attack(_chain()[1], {b: 0.1}), ValidationError, "pinned state index {flag} is not an integer"),
    "generator bus": (lambda b: DispatchCase(_chain()[0], (Generator(bus=b, price=1.0, p_max=1.0),), (0.0, 0.0, 0.0)),
                      UnknownBus, "generator references unknown bus {flag}"),
    "slack": (lambda b: NetworkModel(buses=(1, 2, 3), branches=(Branch(1, 2, 0.1), Branch(2, 3, 0.1)), slack=b),
              ValidationError, "slack bus {flag} is not in the bus list"),
    "branch end": (lambda b: NetworkModel(buses=(1, 2, 3), branches=(Branch(b, 2, 0.1), Branch(2, 3, 0.1)), slack=1),
                   ValidationError, "branch {flag}-2 references unknown bus {flag}"),
    "gross error meter": (lambda b: _build_attack_vector(GrossErrorSpec(meter=b, magnitude_pu=0.5), _chain()[1]),
                          ValidationError, "gross error meter index {flag} is not an integer"),
    "lmp bus": (lambda b: DispatchResult(np.zeros(1), np.zeros(2), {1: 10.0, 2: 20.0, 3: 30.0}, 0.0, ()).lmp_at(b),
                UnknownBus, "no LMP for unknown bus {flag}"),
}
FLAGS = {"bool": True, "numpy bool": np.True_, "float": 1.0, "numpy float": np.float64(1.0)}
FLOAT_SITES = {"state index", "generator bus", "slack", "branch end", "lmp bus"}  # the sites that read a whole float as an int


@pytest.mark.parametrize("site, error, message, flag", [
    pytest.param(*ID_SITES[name], flag, id=f"{name}-{kind}")
    for name in ID_SITES for kind, flag in FLAGS.items() if "bool" in kind or name in FLOAT_SITES
])
def test_a_boolean_is_not_an_id_or_an_index(site, error, message, flag):
    # True == 1 and 1.0 == 1, so each site would read them as bus, branch, meter or state 1, or orientation +1
    with pytest.raises(error, match=f"^{re.escape(message.format(flag=flag))}$"):
        site(flag)


def test_a_numpy_integer_id_still_names_its_bus():
    # the sites that refuse a boolean or a float as an id read a numpy integer as its int
    net = NetworkModel(buses=(1, 2, 3), branches=(Branch(np.int64(1), 2, 0.1), Branch(2, np.int64(3), 0.1)),
                       slack=np.int64(3))
    assert net.ends.tolist() == [[0, 1], [1, 2]] and net.state_buses == (1, 2)
    assert build_h_matrix(net, MeterConfig((Meter(branch=0), Meter(branch=1)))).state_index(np.int64(2)) == 1
    case = DispatchCase(net, (Generator(bus=np.int64(2), price=1.0, p_max=1.0),), (0.0, 1.0, 0.0))
    assert case.network.position[case.generators[0].bus] == 1
    # a numpy bus list is read, and its ids and the slack are kept as Python ints
    for buses in (np.int64(1), 2, np.int64(3)), np.arange(1, 4):
        net = NetworkModel(buses=buses, branches=(Branch(1, 2, 0.1), Branch(2, 3, 0.1)), slack=np.int64(3))
        assert net.buses == (1, 2, 3) and net.ends.tolist() == [[0, 1], [1, 2]]
        assert {type(b) for b in (*net.buses, *net.position, *net.state_buses, net.slack)} == {int}


@pytest.mark.parametrize("meter", [1.0, np.float64(1.0)], ids=["float", "numpy float"])
def test_a_float_gross_error_meter_is_not_an_index(meter):
    # 1.0 == 1, but a float indexes no meter, and numpy's IndexError is no FdiLabError
    with pytest.raises(ValidationError, match=r"^gross error meter index 1\.0 is not an integer$"):
        _build_attack_vector(GrossErrorSpec(meter=meter, magnitude_pu=0.5), _chain()[1])
