import numpy as np
import pytest

from fdilab.errors import (
    DisconnectedGraph,
    DuplicateBus,
    NonPositiveReactance,
    NumericalError,
    UnknownBranch,
    UnobservableConfiguration,
    ValidationError,
)
from fdilab.estimation import WeightModel, wls_estimate
from fdilab.network import (
    Branch,
    Meter,
    MeterConfig,
    NetworkModel,
    build_h_matrix,
    build_network,
)


def two_bus(x=1.0):
    return NetworkModel(
        buses=(1, 2), branches=(Branch(1, 2, x),), slack=1, base_mva=100.0
    )


def test_five_bus_case_builds(net5):
    assert net5.n_states == 4
    assert net5.state_buses == (2, 3, 4, 5)
    assert len(net5.branches) == 6
    assert net5.slack == 1
    assert net5.base_mva == 100.0
    assert [br.x_pu for br in net5.branches] == [0.03, 0.05, 0.05, 0.08, 0.05, 0.08]


def test_two_bus_minimal_case():
    net = build_network({"buses": [1, 2], "branches": [{"from": 1, "to": 2, "x_pu": 1.0}], "slack": 1})
    assert net.n_states == 1


def test_isolated_bus_rejected():
    # drop every branch touching bus 5
    case = {
        "buses": [1, 2, 3, 4, 5],
        "slack": 1,
        "branches": [
            {"from": 1, "to": 2, "x_pu": 0.03},
            {"from": 1, "to": 3, "x_pu": 0.05},
            {"from": 2, "to": 4, "x_pu": 0.05},
            {"from": 3, "to": 4, "x_pu": 0.05},
        ],
    }
    with pytest.raises(DisconnectedGraph, match=r"\[5\]"):
        build_network(case)


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
        build_network({"buses": [1, 2, 2], "branches": [{"from": 1, "to": 2, "x_pu": 1.0}], "slack": 1})


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
        build_network(
            {
                "buses": [1, 2, 3],
                "slack": 1,
                "branches": [{"from": 1, "to": 2, "x_pu": 0.1}, {"from": 2, "to": 3, "x_pu": 1e-320}],
            }
        )


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
    np.testing.assert_allclose(h5.values[0], [-1 / 0.03, 0.0, 0.0, 0.0], rtol=1e-12)


def test_h_theta2_column(h5):
    col = h5.values[:, h5.state_index(2)]
    np.testing.assert_allclose(col, [-1 / 0.03, 0.0, 20.0, 12.5, 0.0, 0.0], rtol=1e-12)


def test_h_single_branch_unit_reactance():
    net = two_bus(x=1.0)
    H = build_h_matrix(net, MeterConfig((Meter(branch=0, orientation=+1, sigma=0.01),)))
    np.testing.assert_allclose(H.values, [[-1.0]])


def test_h_rank_full(h5):
    assert np.linalg.matrix_rank(h5.values) == 4


def test_h_row_structure(net5, h5):
    # slack-adjacent rows have one nonzero entry; all others two, summing to zero
    for row, meter in enumerate(range(6)):
        br = net5.branches[meter]
        nz = np.flatnonzero(np.abs(h5.values[row]) > 0)
        if net5.slack in (br.from_bus, br.to_bus):
            assert len(nz) == 1
        else:
            assert len(nz) == 2
            assert abs(h5.values[row].sum()) < 1e-12


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
        col = h5.values[:, h5.state_index(bus)]
        for row, value in enumerate(col):
            if row in expected:
                assert value == pytest.approx(expected[row], rel=1e-12)
            else:
                assert value == 0.0


def test_unknown_branch_in_meter_config(net5):
    with pytest.raises(UnknownBranch):
        build_h_matrix(net5, MeterConfig((Meter(branch=99),)))


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
    np.testing.assert_allclose(forward.values, -backward.values)
    np.testing.assert_allclose(forward.values, [[-2.0]])


def test_branch_index_lookup(net5):
    resolve = net5.branch_resolver()
    assert resolve(3, 4) == (4, +1)
    assert resolve(4, 3) == (4, -1)
    with pytest.raises(UnknownBranch):
        resolve(1, 5)


def test_branch_index_takes_the_first_parallel_branch_either_way():
    net = NetworkModel(
        buses=(1, 2, 3),
        branches=(Branch(2, 1, 0.1), Branch(1, 2, 0.2), Branch(2, 3, 0.1), Branch(2, 3, 0.3)),
        slack=1,
    )
    resolve = net.branch_resolver()
    assert resolve(1, 2) == (0, -1)
    assert resolve(2, 1) == (0, +1)
    assert resolve(2, 3) == (2, +1)
    assert resolve(3, 2) == (2, -1)
    with pytest.raises(UnknownBranch, match="no branch joins buses 1 and 3"):
        resolve(1, 3)
