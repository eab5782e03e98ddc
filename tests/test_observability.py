"""Property tests of the graph algorithms that replaced dense algebra on H.

The topological observability check, the branch lookup and the null
space of the uncontrolled meters that random stealth attacks draw from;
and, on the same networks, the stealth guarantee of a = Hc through the
shared estimator model.

Each example is a seeded random connected network: a random spanning tree
with random branch directions, plus parallel branches, reversed duplicate
branches and random extra lines, in shuffled input order, with a random
slack. Meters sit on a random subset of branches, each read in a random
direction and some read twice, once each way. Attacker footholds are
random meter subsets.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import CASES_5BUS, dense, empty_omega_memo
from fdilab import caseio, estimation
from fdilab.attack import AttackVector, _null_space, attack_from_c, random_constrained_attack, verify_stealth
from fdilab.detection import (
    CRITICALITY_FLOOR,
    DetectionMethod,
    Detector,
    DetectorSpec,
    chi_square_quantile,
    chi_square_test,
    residual_covariance,
)
from fdilab.errors import DegenerateFreedom, UnknownBranch, UnobservableConfiguration, ValidationError
from fdilab.estimation import WeightModel, WlsModel, simulate_measurements, wls_estimate
from fdilab.network import Branch, MeasurementMatrix, Meter, MeterConfig, NetworkModel, _components, build_h_matrix
from test_golden import write_grid_scenarios

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def networks(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n_buses = draw(st.integers(2, 12))
    n_extra = draw(st.integers(0, 2 * n_buses))
    rng = np.random.default_rng(seed)
    buses = [int(b) for b in rng.choice(np.arange(1, 4 * n_buses), n_buses, replace=False)]
    order = rng.permutation(buses)
    pairs = [(int(order[k]), int(order[rng.integers(k)])) for k in range(1, n_buses)]
    for _ in range(n_extra):
        kind = rng.integers(3)
        if kind < 2:  # a parallel branch, stored the same way or reversed
            f, t = pairs[rng.integers(len(pairs))]
            pairs.append((f, t) if kind == 0 else (t, f))
        else:
            f, t = rng.choice(buses, 2, replace=False)
            pairs.append((int(f), int(t)))
    pairs = [(t, f) if rng.random() < 0.5 else (f, t) for f, t in pairs]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    branches = tuple(Branch(f, t, float(x)) for (f, t), x in zip(pairs, rng.uniform(0.01, 1.0, len(pairs))))
    net = NetworkModel(buses=tuple(buses), branches=branches, slack=int(rng.choice(buses)))

    keep = rng.random() * 0.8 + 0.2
    meters = []
    for br in branches:
        if rng.random() < keep:
            ends = (br.from_bus, br.to_bus) if rng.random() < 0.5 else (br.to_bus, br.from_bus)
            reads = [ends, ends[::-1]] if rng.random() < 0.3 else [ends]
            for f, t in reads:
                index, orientation = scan_branch_index(net, f, t)
                meters.append(Meter(branch=index, orientation=orientation))
    meters = [meters[i] for i in rng.permutation(len(meters))] or [Meter(branch=0)]
    return net, MeterConfig(tuple(meters))


def scan_branch_index(net, from_bus, to_bus):
    """The branch a meter on (from_bus, to_bus) reads, by a linear scan: the first in input
    order, either direction, with its orientation."""
    for i, br in enumerate(net.branches):
        if (br.from_bus, br.to_bus) == (from_bus, to_bus):
            return i, +1
        if (br.from_bus, br.to_bus) == (to_bus, from_bus):
            return i, -1
    raise UnknownBranch(f"no branch joins buses {from_bus} and {to_bus}")


def reference_h(net, meters):
    col = {b: k for k, b in enumerate(net.state_buses)}
    H = np.zeros((len(meters), len(net.state_buses)))
    for row, meter in enumerate(meters.meters):
        br = net.branches[meter.branch]
        w = meter.orientation / br.x_pu
        if br.from_bus != net.slack:
            H[row, col[br.from_bus]] += w
        if br.to_bus != net.slack:
            H[row, col[br.to_bus]] -= w
    return H


def reference_edges(net, meters):
    """The meter graph, from the branch ends: one (column, column) pair per meter, lower first,
    the slack as column n."""
    col = {b: k for k, b in enumerate((*net.state_buses, net.slack))}
    ends = [(col[net.branches[m.branch].from_bus], col[net.branches[m.branch].to_bus]) for m in meters.meters]
    return np.sort(ends, axis=1)


def build_or_none(net, meters):
    try:
        return build_h_matrix(net, meters)
    except UnobservableConfiguration:
        return None


@PROPERTY_SETTINGS
@given(networks())
def test_graph_walk_verdict_equals_full_rank(case):
    net, meters = case
    expected = reference_h(net, meters)
    H = build_or_none(net, meters)
    assert (H is not None) == (np.linalg.matrix_rank(expected) == len(net.state_buses))
    if H is not None:
        assert np.array_equal(dense(H), expected)
        assert H.state_buses == net.state_buses
        assert np.array_equal(H.edges, reference_edges(net, meters))
        assert H.edges.dtype == int and not H.edges.flags.writeable


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
def test_branch_index_matches_the_linear_scan(tmp_path_factory, case, seed):
    # every ordered pair of distinct buses, joined or not, in random order: parallel branches
    # stored either way name their first, and the first unjoined pair is refused by its position
    net, _ = case
    rng = np.random.default_rng(seed)
    pairs = [(f, t) for f in net.buses for t in net.buses if f != t]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    expected = []
    for i, (f, t) in enumerate(pairs):
        try:
            expected.append(scan_branch_index(net, f, t))
        except UnknownBranch as exc:
            expected.append(f"meters[{i}]: {exc}")
    path = tmp_path_factory.mktemp("meters") / "meters.json"
    path.write_text(json.dumps({"meters": [{"branch": list(pair)} for pair in pairs]}))
    unjoined = [e for e in expected if isinstance(e, str)]
    if unjoined:
        with pytest.raises(ValidationError, match=f"^{re.escape(unjoined[0])}$"):
            caseio.parse_meters(path, net)
    joined = [{"branch": list(pair)} for pair, e in zip(pairs, expected) if not isinstance(e, str)]
    path.write_text(json.dumps({"meters": joined}))
    meters = caseio.parse_meters(path, net).meters
    assert [(m.branch, m.orientation) for m in meters] == [e for e in expected if not isinstance(e, str)]


@PROPERTY_SETTINGS
@given(networks())
def test_build_h_matrix_computes_no_svd(case):
    net, meters = case

    def no_svd(*args, **kwargs):
        raise AssertionError("build_h_matrix factored H")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "matrix_rank", no_svd)
        patch.setattr(np.linalg, "svd", no_svd)
        build_or_none(net, meters)


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
def test_graph_null_space_spans_the_svd_null_space(case, seed):
    net, meters = case
    H = reference_h(net, meters)
    rng = np.random.default_rng(seed)
    uncontrolled = rng.random(len(meters)) < rng.random()
    basis = _null_space(len(net.state_buses), reference_edges(net, meters), uncontrolled)
    if uncontrolled.any():
        expected = scipy.linalg.null_space(H[uncontrolled], rcond=1e-10)
    else:
        expected = np.eye(len(net.state_buses))
    assert basis.shape == expected.shape
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    np.testing.assert_allclose(basis @ basis.T, expected @ expected.T, atol=1e-9)
    lowest = [int(np.flatnonzero(column)[0]) for column in basis.T]
    assert lowest == sorted(lowest)


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
def test_every_foothold_at_the_support_bound_is_feasible_without_svd(case, seed):
    net, meters = case
    H = build_or_none(net, meters)
    if H is None:
        return
    m, n = H.m, H.n
    rng = np.random.default_rng(seed)
    foothold = rng.choice(m, int(rng.integers(m - n + 1, m + 1)), replace=False)

    def no_svd(*args, **kwargs):
        raise AssertionError("random_constrained_attack factored H")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.linalg, "null_space", no_svd)
        patch.setattr(np.linalg, "svd", no_svd)
        atk = random_constrained_attack(H, foothold, seed=seed, magnitude=0.1)
    assert set(atk.support) <= set(foothold.tolist())
    assert np.linalg.norm(atk.a) == pytest.approx(0.1, rel=1e-9)
    # a meter whose two angles the shift moves alike reads exactly 0, with no round-off to zero out
    assert np.all(atk.a[np.setdiff1d(np.arange(m), foothold)] == 0.0)


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_stealth_attack_leaves_residual_and_verdicts_and_shifts_the_state_by_c(case, seed):
    net, meters = case
    H = build_or_none(net, meters)
    # Chi-square needs m > n, and LNR a meter that is not critical: without one
    # LNR is undefined and raises AllMetersCritical. Since diag(Omega R^-1) sums
    # to m - n, m > n already implies such a meter.
    assume(H is not None and H.m > H.n)
    rng = np.random.default_rng(seed)
    w = WeightModel(rng.uniform(0.005, 0.05, H.m))
    model = WlsModel.of(H, w)
    assume(np.any(model.omega_diagonal >= CRITICALITY_FLOOR * model.sigmas**2))
    z = simulate_measurements(H, rng.normal(scale=0.1, size=H.n), w, seed=rng)
    c = rng.normal(scale=0.1, size=H.n)
    atk = attack_from_c(H, c)

    clean, attacked = wls_estimate(H, z, w), wls_estimate(H, z + atk.a, w)
    assert WlsModel.of(H, w) is model
    assert np.linalg.norm(attacked.residual - clean.residual) <= 1e-9 * np.linalg.norm(clean.residual)
    assert np.linalg.norm(attacked.state - clean.state - c) <= 1e-9 * np.linalg.norm(c)
    for method in DetectionMethod:
        detector = Detector.for_model(DetectorSpec(method), model)
        assert detector.report(attacked).bad_data_detected == detector.report(clean).bad_data_detected
    assert verify_stealth(z, atk, H, w)


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 0.9, 0.99, 0.999]))
def test_chi_square_test_reads_m_and_n_off_the_estimate(case, seed, confidence):
    net, meters = case
    H = build_or_none(net, meters)
    assume(H is not None)
    rng = np.random.default_rng(seed)
    w = WeightModel(rng.uniform(0.005, 0.05, H.m))
    z = simulate_measurements(H, rng.normal(scale=0.1, size=H.n), w, seed=rng)
    z[rng.integers(H.m)] += rng.choice([0.0, 0.5])  # a gross error in about half the examples
    res = wls_estimate(H, z, w)
    if H.m == H.n:
        with pytest.raises(DegenerateFreedom):
            chi_square_test(res, confidence)
        return
    report = chi_square_test(res, confidence)
    assert report.threshold == chi_square_quantile(confidence, H.m - H.n)
    spec = DetectorSpec(DetectionMethod.CHI_SQUARE, confidence)
    assert report == Detector.for_model(spec, WlsModel(H, w)).report(res)


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_stealth_checks_sharing_h_give_the_verdicts_and_estimates_of_a_fresh_h(case, seed):
    # verify_stealth reads diag(Omega) from the memo that the checks before it filled: stealthy
    # and gross attacks in turn must judge as on an H that never served a call with a cold memo,
    # and H's shared model must be left alone, its estimate keeping its bits
    net, meters = case
    H = build_or_none(net, meters)
    assume(H is not None and H.m > H.n)
    rng = np.random.default_rng(seed)
    w = WeightModel(rng.uniform(0.005, 0.05, H.m))
    assume(np.any(WlsModel(H, w).omega_diagonal >= CRITICALITY_FLOOR * w.sigmas**2))
    z = simulate_measurements(H, rng.normal(scale=0.1, size=H.n), w, seed=rng)
    before = wls_estimate(H, z, w)
    model = WlsModel.of(H, w)
    for k in range(6):
        if k % 2 == 0:
            atk = attack_from_c(H, rng.normal(scale=0.1, size=H.n))
        else:
            meter = int(rng.integers(H.m))
            spike = np.zeros(H.m)
            spike[meter] = 50 * w.sigmas[meter]
            atk = AttackVector(a=spike, c=np.zeros(H.n), support=(meter,))
        fresh = MeasurementMatrix(H.state_buses, H.edges, H.weights)
        shared = verify_stealth(z, atk, H, w)
        empty_omega_memo()  # so the fresh H works diag(Omega) out again
        assert shared == verify_stealth(z, atk, fresh, w)
    assert WlsModel.of(H, w) is model
    empty_omega_memo()
    shared = model.omega_diagonal
    empty_omega_memo()
    assert shared.tobytes() == WlsModel(H, w).omega_diagonal.tobytes()
    after = wls_estimate(H, z, w)
    for field in ("state", "fitted", "residual", "objective"):
        assert np.asarray(getattr(after, field)).tobytes() == np.asarray(getattr(before, field)).tobytes()


def scan_omega_diagonal(model, H):
    """diag(Omega) of ``model``, the model of H, as the nonzero scan of the dense H that the edge
    list replaced worked it out: each row's nonzeros, then each pair of them, read off G^-1 and
    summed in that order."""
    factor, lower = model.factor
    inverse, _ = scipy.linalg.lapack.dpotri(factor, lower=lower, overwrite_c=False)
    Hd = dense(H)
    rows, cols = np.nonzero(Hd)
    values = Hd[rows, cols]
    quad = np.bincount(rows, values**2 * inverse[cols, cols], model.m)
    for d in range(1, np.bincount(rows).max()):
        p = np.flatnonzero(rows[d:] == rows[:-d])
        a, b = cols[p], cols[p + d]
        g = inverse[b, a] if lower else inverse[a, b]
        quad += np.bincount(rows[p], 2 * values[p] * values[p + d] * g, model.m)
    return model.sigmas**2 - quad


def case_model(grid, directory):
    """H and a fresh WlsModel of the bundled 5-bus case or, written into ``directory``, the 30-bus grid."""
    if grid == "5bus":
        directory = CASES_5BUS
    else:
        write_grid_scenarios(directory)
    net = caseio.parse_network(directory / "network.json")
    meters = caseio.parse_meters(directory / "meters.json", net)
    H = build_h_matrix(net, meters)
    return H, WlsModel(H, WeightModel(meters.sigmas))


@pytest.mark.parametrize("grid", ["5bus", "grid30"])
def test_omega_diagonal_equals_the_nonzero_scan_bit_for_bit(grid, tmp_path):
    H, model = case_model(grid, tmp_path)
    assert np.array_equal(model.omega_diagonal, scan_omega_diagonal(model, H))


def meter_by_meter_gain(H, sigmas):
    """H' R^-1 H summed one meter at a time in meter order, each term at the slack column n dropped."""
    gain = np.zeros((H.n, H.n))
    for (a, b), w, sigma in zip(H.edges.tolist(), H.weights, sigmas):
        W = (w / sigma) * (w / sigma)
        gain[a, a] += W
        if b < H.n:
            gain[b, b] += W
            gain[a, b] -= W
            gain[b, a] -= W
    return gain


@pytest.mark.parametrize("grid", ["5bus", "grid30"])
def test_gain_from_the_edge_list_has_the_bits_of_the_meter_by_meter_sum(grid, tmp_path):
    # The dense BLAS product's bits follow the kernel, so it bounds the gain and does not pin it
    H, model = case_model(grid, tmp_path)
    gain = meter_by_meter_gain(H, model.sigmas)
    Hw = dense(H) / model.sigmas[:, None]
    np.testing.assert_allclose(gain, Hw.T @ Hw, rtol=1e-13, atol=0)
    factor, lower = scipy.linalg.cho_factor(gain)
    assert model.factor[0].tobytes() == factor.tobytes() and model.factor[1] == lower
    # potrf leaves the triangle it does not factor as it was: the gain itself
    assert np.tril(model.factor[0], -1).tobytes() == np.tril(gain, -1).tobytes()


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_gain_and_fit_from_the_edge_list_match_the_meter_sum_and_a_dense_solve(case, seed, trials):
    # networks() meters parallel lines and some lines both ways, so edges repeat, and
    # every placement that observes the state has meters on the slack
    net, meters = case
    H = build_or_none(net, meters)
    assume(H is not None)
    rng = np.random.default_rng(seed)
    sigmas = rng.uniform(0.005, 0.05, H.m)
    Hd = dense(H)
    Z = Hd @ rng.normal(scale=0.1, size=(H.n, trials)) + rng.normal(scale=sigmas[:, None], size=(H.m, trials))
    expected = np.linalg.lstsq(Hd / sigmas[:, None], Z / sigmas[:, None], rcond=None)[0].T
    model = WlsModel(H, WeightModel(sigmas))
    assert model.factor[0].tobytes() == scipy.linalg.cho_factor(meter_by_meter_gain(H, sigmas))[0].tobytes()
    block = model.fit(Z.T)
    single = model.estimate(Z[:, 0])
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(block.state, expected, rtol=1e-8, atol=1e-10 * scale)
    np.testing.assert_allclose(single.state, expected[0], rtol=1e-8, atol=1e-10 * scale)
    residual = Z.T - expected @ Hd.T
    np.testing.assert_allclose(block.objective, np.sum((residual / sigmas) ** 2, axis=1), rtol=1e-8, atol=1e-12)


def seeded_300_bus_h() -> MeasurementMatrix:
    """H of a 300-bus tree plus 120 extra lines, every line metered, 30% of them both ways."""
    rng = np.random.default_rng(300)
    buses = [int(b) for b in rng.permutation(np.arange(1, 301))]
    pairs = [(buses[k], buses[rng.integers(k)]) for k in range(1, 300)]
    pairs += [tuple(int(b) for b in rng.choice(buses, 2, replace=False)) for _ in range(120)]
    reactances = rng.uniform(0.01, 0.5, len(pairs))
    net = NetworkModel(tuple(buses), tuple(Branch(f, t, float(x)) for (f, t), x in zip(pairs, reactances)), buses[0])
    both_ways = [[(f, t), (t, f)] if rng.random() < 0.3 else [(f, t)] for f, t in pairs]
    reads = [scan_branch_index(net, *pair) for ways in both_ways for pair in ways]
    return build_h_matrix(net, MeterConfig(tuple(Meter(branch=i, orientation=o) for i, o in reads)))


def test_factor_builds_no_m_by_n_array_and_no_second_gain():
    # the gain, factored in place and then inverted in place by potri for diag(Omega),
    # is the one n x n array, and m x n would be 1.8 n^2
    H = seeded_300_bus_h()
    model = WlsModel(H, WeightModel(np.full(H.m, 0.01)))
    tracemalloc.start()
    try:
        model.factor
        model.estimate(np.zeros(H.m))
        model.omega_diagonal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.m > 1.5 * H.n and peak < 1.5 * H.n**2 * 8


@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_first_stealthy_check_frees_the_fit_factor_before_forming_diag_omega():
    # The fit and the detectors share one model, whose potri forms diag(Omega) in the fit's
    # factor buffer, so one n x n array is alive at a time; a second factor alive beside the
    # fit's, as a second model would make, takes the peak to about 2.2 n^2 doubles.
    import scipy.special  # noqa: F401  the first threshold imports it, and that import is not the check's memory

    H = seeded_300_bus_h()
    w = WeightModel(np.full(H.m, 0.01))
    z = simulate_measurements(H, np.zeros(H.n), w, seed=1)
    atk = attack_from_c(H, np.random.default_rng(1).normal(scale=0.01, size=H.n))
    tracemalloc.start()
    try:
        stealthy = verify_stealth(z, atk, H, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stealthy and H._model is None
    key, diagonal = estimation._last_omega
    assert key[0] == H.n and diagonal.shape == (H.m,)
    assert peak < 1.5 * H.n**2 * 8, peak / (H.n**2 * 8)


@settings(PROPERTY_SETTINGS, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(networks(), st.integers(0, 2**32 - 1))
@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_cold_stealth_check_factors_once_and_judges_as_a_warm_one(factorisations, inversions, case, seed):
    # On a meter set the memo does not hold, the check factors the gain for its fit and
    # inverts that factor for diag(Omega); a second check reads the memo and factors once.
    net, meters = case
    H = build_or_none(net, meters)
    assume(H is not None and H.m > H.n)
    rng = np.random.default_rng(seed)
    w = WeightModel(rng.uniform(0.005, 0.05, H.m))
    assume(np.any(WlsModel(H, w).omega_diagonal >= CRITICALITY_FLOOR * w.sigmas**2))
    z = simulate_measurements(H, rng.normal(scale=0.1, size=H.n), w, seed=rng)
    meter = int(rng.integers(H.m))
    spike = np.zeros(H.m)
    spike[meter] = 50 * w.sigmas[meter]
    attacks = [attack_from_c(H, rng.normal(scale=0.1, size=H.n)), AttackVector(spike, np.zeros(H.n), (meter,))]
    for atk in attacks:
        empty_omega_memo()
        factorisations.clear()
        inversions.clear()
        cold = verify_stealth(z, atk, H, w)
        formed = estimation._last_omega[1] is not None
        assert factorisations == [(H.n, H.n)] and inversions == [(H.n, H.n)] * formed
        warm = verify_stealth(z, atk, H, w)
        assert warm == cold and factorisations == [(H.n, H.n)] * 2 and inversions == [(H.n, H.n)] * formed


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
def test_omega_diagonal_from_the_inverse_gain_matches_the_full_omega(case, seed):
    net, meters = case
    H = build_or_none(net, meters)
    assume(H is not None)
    m, n = H.m, H.n
    sigmas = np.random.default_rng(seed).uniform(0.005, 0.05, m)
    w = WeightModel(sigmas)
    model = WlsModel(H, w)
    full = residual_covariance(H, w)
    assert np.array_equal(model.omega_diagonal, scan_omega_diagonal(model, H))
    np.testing.assert_allclose(model.omega_diagonal, np.diag(full), rtol=1e-10, atol=1e-12 * np.max(sigmas**2))
    critical = CRITICALITY_FLOOR * sigmas**2
    assert np.array_equal(model.omega_diagonal < critical, np.diag(full) < critical)
    # Omega R^-1 is the residual projector: idempotent, with trace m - n
    assert np.sum(model.omega_diagonal / sigmas**2) == pytest.approx(m - n, rel=1e-9, abs=1e-9)
    projector = full / sigmas**2
    np.testing.assert_allclose(projector @ projector, projector, rtol=0, atol=1e-9)


@PROPERTY_SETTINGS
@given(networks(), st.integers(0, 2**32 - 1))
def test_critical_meters_are_those_whose_removal_cuts_a_bus_off_the_slack(case, seed):
    # Clements, Krumpholz and Davis (1981): a meter is critical exactly when it
    # is a bridge of the meter multigraph, reversed duplicates counted as parallel edges
    net, meters = case
    H = build_or_none(net, meters)
    assume(H is not None)
    sigmas = np.random.default_rng(seed).uniform(0.005, 0.05, H.m)
    critical = WlsModel(H, WeightModel(sigmas)).omega_diagonal < CRITICALITY_FLOOR * sigmas**2
    node = {b: k for k, b in enumerate(net.buses)}
    metered = [net.branches[meter.branch] for meter in meters.meters]
    ends = [(node[br.from_bus], node[br.to_bus]) for br in metered]
    cut_off = [len(set(_components(len(node), ends[:i] + ends[i + 1 :]))) > 1 for i in range(H.m)]
    assert critical.tolist() == cut_off
