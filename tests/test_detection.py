import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdilab
from conftest import CASES_5BUS, dense
from fdilab import caseio, estimation
from fdilab.detection import (
    DetectionMethod,
    Detector,
    DetectorSpec,
    chi_square_quantile,
    chi_square_test,
    gaussian_quantile,
    lnr_test,
    residual_covariance,
)
from fdilab.errors import (
    AllMetersCritical,
    DegenerateFreedom,
    ValidationError,
)
from fdilab.estimation import WeightModel, WlsModel, wls_estimate
from fdilab.network import Branch, Meter, MeterConfig, NetworkModel, build_h_matrix

# closed-form and table oracles for the quantiles
CHI2_99_2 = -2.0 * math.log(0.01)       # 9.2103403720
CHI2_50_2 = 2.0 * math.log(2.0)         # 1.3862943611
CHI2_99_1 = 6.6348966010                # squared two-sided Gaussian 0.995 quantile
GAUSS_995 = 2.5758293035
GAUSS_975 = 1.9599639845


# -- quantile oracles -----------------------------------------------------------

def test_chi_square_quantile_closed_forms():
    assert chi_square_quantile(0.99, 2) == pytest.approx(CHI2_99_2, abs=1e-6)
    assert chi_square_quantile(0.5, 2) == pytest.approx(CHI2_50_2, abs=1e-6)
    assert chi_square_quantile(0.99, 1) == pytest.approx(CHI2_99_1, abs=1e-6)
    assert chi_square_quantile(0.99, 1) == pytest.approx(GAUSS_995**2, abs=1e-6)


def test_gaussian_quantile_values():
    assert gaussian_quantile(0.5) == 0.0
    assert gaussian_quantile(0.995) == pytest.approx(GAUSS_995, abs=1e-6)
    assert gaussian_quantile(0.975) == pytest.approx(GAUSS_975, abs=1e-6)
    # symmetry
    assert gaussian_quantile(0.25) == pytest.approx(-gaussian_quantile(0.75), abs=1e-12)


# chi-square confidences in use (scenario files, CLI, bench, tests) and the
# two-sided Gaussian probabilities 1 - (1 - c) / 2 that LNR takes from them
CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999)


def test_quantiles_equal_scipy_stats_bit_for_bit():
    from scipy import stats

    for p in CONFIDENCES:
        for nu in range(1, 201):
            assert chi_square_quantile(p, nu) == float(stats.chi2.ppf(p, nu)), (p, nu)
        for q in (p, 1.0 - (1.0 - p) / 2.0):
            assert gaussian_quantile(q) == float(stats.norm.ppf(q)), q


def test_import_leaves_scipy_stats_out():
    # a fresh interpreter importing the package under test, wherever it lives
    src = str(Path(fdilab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, fdilab; print(fdilab.__file__); "
        "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    imported, stats_loaded, optimize_loaded = out.stdout.split()
    assert Path(imported).resolve() == Path(fdilab.__file__).resolve()
    assert stats_loaded == "False"
    # the OPF loads scipy.optimize on its first call
    assert optimize_loaded == "False"


def test_quantile_domain_checks():
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValidationError):
            gaussian_quantile(p)
        with pytest.raises(ValidationError):
            chi_square_quantile(p, 2)
    with pytest.raises(ValidationError, match="^degrees of freedom 0 must be >= 1$"):
        chi_square_quantile(0.99, 0)


# -- chi-square test ------------------------------------------------------------

def test_chi_square_perfect_fit_not_detected(h5, w5):
    res = wls_estimate(h5, dense(h5) @ np.zeros(4), w5)
    report = chi_square_test(res, confidence=0.99)
    assert not report.bad_data_detected
    assert report.statistic == pytest.approx(0.0, abs=1e-20)


def test_chi_square_uses_two_degrees_of_freedom(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)
    report = chi_square_test(res, confidence=0.99)
    assert report.threshold == pytest.approx(CHI2_99_2, abs=1e-6)
    assert report.method is DetectionMethod.CHI_SQUARE


def test_chi_square_degenerate_freedom(one_state):
    res = wls_estimate(one_state(), [0.5], WeightModel([1.0]))
    with pytest.raises(DegenerateFreedom):
        chi_square_test(res, confidence=0.99)


def test_detection_decision_matches_invariant(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)
    for confidence in (0.5, 0.9, 0.99, 0.999):
        rep = chi_square_test(res, confidence)
        assert rep.bad_data_detected == (rep.statistic > rep.threshold)


def test_confidence_monotonicity(h5, z5, w5):
    # raising confidence raises the threshold, so detections can only turn off
    res = wls_estimate(h5, z5 + np.array([0.03, 0, 0, 0, 0, 0]), w5)
    omega = residual_covariance(h5, w5)
    grid = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
    chi_flags = [chi_square_test(res, c).bad_data_detected for c in grid]
    lnr_flags = [lnr_test(res, omega, c).bad_data_detected for c in grid]
    for flags in (chi_flags, lnr_flags):
        for earlier, later in zip(flags, flags[1:]):
            assert earlier or not later, f"verdicts not monotone: {flags}"


# -- residual covariance ----------------------------------------------------------

def test_omega_zero_for_square_system(one_state):
    omega = residual_covariance(one_state(), WeightModel([0.01]))
    assert abs(omega[0, 0]) < 1e-18


def test_omega_properties(h5, w5):
    omega = residual_covariance(h5, w5)
    np.testing.assert_allclose(omega, omega.T, atol=1e-10)
    assert np.all(np.diag(omega) >= -1e-10)
    r_inv = np.diag(1.0 / w5.sigmas**2)
    # residual projector: omega R^-1 idempotent with trace m - n = 2
    proj = omega @ r_inv
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)
    assert np.trace(proj) == pytest.approx(2.0, abs=1e-8)


# -- largest normalized residual ---------------------------------------------------

def test_lnr_zero_residual_not_detected(h5, w5):
    res = wls_estimate(h5, dense(h5) @ np.zeros(4), w5)
    omega = residual_covariance(h5, w5)
    rep = lnr_test(res, omega, confidence=0.99)
    assert rep.statistic == pytest.approx(0.0, abs=1e-12)
    assert not rep.bad_data_detected
    assert rep.suspect_meter is None


def test_lnr_omega_must_match_the_estimate(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)  # 6 meters
    with pytest.raises(ValidationError, match="^omega and estimation result disagree on meter count$"):
        lnr_test(res, np.eye(5))


def test_lnr_threshold_is_two_sided(h5, w5):
    res = wls_estimate(h5, dense(h5) @ np.zeros(4), w5)
    rep = lnr_test(res, residual_covariance(h5, w5), confidence=0.99)
    assert rep.threshold == pytest.approx(GAUSS_995, abs=1e-6)


# Meters whose residuals are perfectly correlated (removing any two of a
# group destroys observability); a single gross error can be located only
# up to its group. Meter 2 is the one meter in no such group.
CORRELATED_GROUPS = {0: {0, 1, 4}, 1: {0, 1, 4}, 4: {0, 1, 4}, 3: {3, 5}, 5: {3, 5}, 2: {2}}


@pytest.mark.parametrize("meter", range(6))
def test_lnr_locates_gross_error_up_to_group(h5, w5, meter):
    omega = residual_covariance(h5, w5)
    for seed in (11, 23, 37):
        rng = np.random.default_rng(seed)
        z = dense(h5) @ rng.normal(scale=0.02, size=4) + rng.normal(scale=0.01, size=6)
        z[meter] += 0.5  # 50 sigma
        res = wls_estimate(h5, z, w5)
        rep = lnr_test(res, omega, confidence=0.99)
        assert rep.bad_data_detected
        assert rep.suspect_meter in CORRELATED_GROUPS[meter], (
            f"seed {seed}: suspect {rep.suspect_meter} outside group of meter {meter}"
        )


def test_lnr_identifies_the_identifiable_meter(h5, w5):
    # meter 2 is in no critical group: a 50 sigma error there is always named
    omega = residual_covariance(h5, w5)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        z = dense(h5) @ rng.normal(scale=0.02, size=4) + rng.normal(scale=0.01, size=6)
        z[2] += 0.5
        rep = lnr_test(wls_estimate(h5, z, w5), omega, confidence=0.99)
        assert rep.bad_data_detected and rep.suspect_meter == 2


@pytest.mark.parametrize("meter", [m for m, group in CORRELATED_GROUPS.items() if len(group) > 1])
def test_lnr_names_the_lowest_meter_of_a_correlated_group(h5, w5, meter):
    # the group's normalized residuals are equal in exact arithmetic, so the
    # suspect must not depend on which of them round-off makes largest
    omega = residual_covariance(h5, w5)
    lowest = min(CORRELATED_GROUPS[meter])
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z = dense(h5) @ rng.normal(scale=0.02, size=4) + rng.normal(scale=0.01, size=6)
        z[meter] += 0.5
        rep = lnr_test(wls_estimate(h5, z, w5), omega, confidence=0.99)
        assert rep.suspect_meter == lowest, f"seed {seed}: suspect {rep.suspect_meter}"


def test_residual_correlation_structure(h5, w5):
    # group members are perfectly correlated and their joint removal breaks
    # observability; meter 2 correlates with nobody at |rho| = 1
    omega = residual_covariance(h5, w5)
    scale = np.sqrt(np.diag(omega))
    rho = omega / np.outer(scale, scale)
    for i, group in CORRELATED_GROUPS.items():
        for j in group:
            if i == j:
                continue
            assert abs(abs(rho[i, j]) - 1.0) < 1e-9
            keep = [k for k in range(6) if k not in (i, j)]
            assert np.linalg.matrix_rank(dense(h5)[keep]) < 4
        for j in set(range(6)) - group:
            assert abs(rho[i, j]) < 0.99


def critical_meter_system():
    """3-bus chain where only meter 0 observes bus 2's neighborhood split.

    Meters: one on branch 1-2, two duplicated on branch 2-3. Removing
    meter 0 leaves rank 1 < 2, so meter 0 is critical.
    """
    net = NetworkModel(
        buses=(1, 2, 3), branches=(Branch(1, 2, 1.0), Branch(2, 3, 1.0)), slack=1
    )
    meters = MeterConfig(
        (Meter(branch=0, sigma=0.01), Meter(branch=1, sigma=0.01), Meter(branch=1, sigma=0.01))
    )
    return build_h_matrix(net, meters), WeightModel(np.full(3, 0.01))


def test_critical_meter_excluded_with_warning():
    H, w = critical_meter_system()
    omega = residual_covariance(H, w)
    assert abs(omega[0, 0]) <= 1e-10 * 0.01**2
    # gross error on the critical meter is structurally invisible to LNR
    z = np.array([0.5, 0.0, 0.0])
    res = wls_estimate(H, z, w)
    with pytest.warns(UserWarning, match="critical"):
        rep = lnr_test(res, omega, confidence=0.99)
    assert rep.suspect_meter != 0
    assert abs(res.residual[0]) < 1e-12  # residual at a critical meter is zero


def test_all_meters_critical(one_state):
    H, w = one_state(), WeightModel([1.0])
    res = wls_estimate(H, [0.5], w)
    omega = residual_covariance(H, w)
    with pytest.raises(AllMetersCritical):
        lnr_test(res, omega, confidence=0.99)


def test_noise_free_passes_any_confidence(h5, w5):
    res = wls_estimate(h5, dense(h5) @ np.full(4, 0.01), w5)
    omega = residual_covariance(h5, w5)
    for confidence in (0.5, 0.9, 0.99, 0.9999):
        assert not chi_square_test(res, confidence).bad_data_detected
        assert not lnr_test(res, omega, confidence).bad_data_detected


def test_run_detectors_builds_omega_only_for_lnr(h5, z5, w5):
    model = WlsModel(h5, w5)
    res = model.estimate(z5)
    chi = Detector.for_model(DetectorSpec(DetectionMethod.CHI_SQUARE, 0.95), model).report(res)
    assert estimation._last_omega == (None, None)
    assert chi == chi_square_test(res, 0.95)
    both = [Detector.for_model(DetectorSpec(m), model).report(res) for m in DetectionMethod]
    # only the diagonal is built, by another route than the full Omega, so the
    # statistic agrees with lnr_test to round-off
    reference = lnr_test(res, residual_covariance(h5, w5))
    assert both[1].statistic == pytest.approx(reference.statistic, rel=1e-12)
    assert dataclasses.replace(both[1], statistic=reference.statistic) == reference
    assert estimation._last_omega[1] is model.omega_diagonal and "omega" not in vars(model)


@pytest.mark.parametrize("system", ["5bus", "critical"])
def test_omega_diagonal_matches_full_omega(h5, w5, system):
    H, w = {"5bus": lambda: (h5, w5), "critical": critical_meter_system}[system]()
    model = WlsModel(H, w)
    full = np.diag(residual_covariance(H, w))
    np.testing.assert_allclose(model.omega_diagonal, full, rtol=1e-12, atol=1e-12 * np.max(w.sigmas**2))


def test_omega_diagonal_consumes_the_factor_and_keeps_no_inverse_gain(h5, z5, w5):
    model = WlsModel(h5, w5)
    before = model.estimate(z5)
    diagonal = model.omega_diagonal
    # potri overwrote the factor with the inverse gain, the model dropped both, and the memo keeps diag(Omega)
    assert sorted(vars(model)) == ["edges", "m", "n", "sigmas", "weights"]
    assert estimation._last_omega[1] is diagonal
    after = model.estimate(z5)  # factors the gain again
    fresh = WlsModel(h5, w5)
    reference = fresh.estimate(z5)
    for estimate in (before, after):
        for field in ("state", "fitted", "residual"):
            assert getattr(estimate, field).tobytes() == getattr(reference, field).tobytes()
        assert estimate.objective == reference.objective
    assert model.factor[0].tobytes() == fresh.factor[0].tobytes()


def parsed_model(directory=CASES_5BUS):
    """``WlsModel.of`` the H and weights of a network and meter set parsed afresh from ``directory``."""
    net = caseio.parse_network(directory / "network.json")
    meters = caseio.parse_meters(directory / "meters.json", net)
    return WlsModel.of(build_h_matrix(net, meters), WeightModel(meters.sigmas))


def test_two_h_of_the_same_files_invert_the_gain_once(inversions):
    first, second = parsed_model(), parsed_model()
    assert first is not second
    diagonals = first.omega_diagonal, second.omega_diagonal
    assert inversions == [(4, 4)]
    assert diagonals[0].tobytes() == diagonals[1].tobytes()
    for diagonal in diagonals:
        with pytest.raises(ValueError, match="read-only"):
            diagonal[0] = 0.0


# an edit to one meter of the 5-bus files, and whether it moves diag(Omega): its sigma, its
# branch's reactance, or its orientation, which flips the sign of its weight w and keeps w^2
METER_SET_EDITS = {
    "sigma": ("meters.json", '{"branch": [2, 4], "sigma": 0.01}', '{"branch": [2, 4], "sigma": 0.02}', True),
    "reactance": ("network.json", '"from": 2, "to": 4, "x_pu": 0.05', '"from": 2, "to": 4, "x_pu": 0.06', True),
    "orientation": ("meters.json", '{"branch": [2, 4], "sigma": 0.01}', '{"branch": [4, 2], "sigma": 0.01}', False),
}


@pytest.mark.parametrize("name, old, new, moves", METER_SET_EDITS.values(), ids=list(METER_SET_EDITS))
def test_a_changed_meter_set_misses_the_memo_and_evicts_the_last(tmp_path, inversions, name, old, new, moves):
    for file in ("network.json", "meters.json"):
        text = (CASES_5BUS / file).read_text()
        (tmp_path / file).write_text(text.replace(old, new) if file == name else text)
    assert (tmp_path / name).read_text() != (CASES_5BUS / name).read_text()
    original = parsed_model().omega_diagonal
    edited = parsed_model(tmp_path).omega_diagonal
    assert inversions == [(4, 4)] * 2
    # the edited set took the memo's one entry, so the original set is worked out again, to the same bits
    assert parsed_model().omega_diagonal.tobytes() == original.tobytes()
    assert inversions == [(4, 4)] * 3
    assert (edited.tobytes() != original.tobytes()) == moves


def test_a_memo_hit_leaves_the_factor_of_its_model(h5, z5, w5, factorisations, inversions):
    WlsModel(h5, w5).omega_diagonal
    model = WlsModel(h5, w5)
    before = model.estimate(z5)
    model.omega_diagonal
    assert "factor" in vars(model)
    after = model.estimate(z5)
    assert factorisations == [(4, 4)] * 2 and inversions == [(4, 4)]
    assert after.state.tobytes() == before.state.tobytes()
