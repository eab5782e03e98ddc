"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines on a passing suite.
"""

import functools
import math
from itertools import combinations

import numpy as np
import pytest

from conftest import CASES_5BUS, TABLE_XHAT, dense
from fdilab.attack import attack_from_c, random_constrained_attack
from fdilab.detection import (
    DetectionMethod,
    chi_square_quantile,
    chi_square_test,
    gaussian_quantile,
    lnr_test,
    residual_covariance,
)
from fdilab.estimation import WeightModel, wls_estimate
from fdilab.market import arbitrage_profit, perceived_case_from_attack, solve_dc_opf
from fdilab.scenario import (
    DetectorSpec,
    GrossErrorSpec,
    Scenario,
    SimulateSource,
    parse_scenario,
    run_monte_carlo,
    run_scenario,
)

BOTH = (DetectorSpec(DetectionMethod.CHI_SQUARE), DetectorSpec(DetectionMethod.LNR))


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2} FAIL  {title}")
                raise
            print(f"criterion {number:>2} PASS  {title}")

        return wrapper

    return decorate


def _stealth_sweep(h5, w5, trials=1000):
    """Seeded (z, c) draws with clean/attacked estimates and verdicts."""
    rng = np.random.default_rng(20_260_810)
    omega = residual_covariance(h5, w5)
    for _ in range(trials):
        x_true = rng.normal(scale=0.03, size=4)
        z = dense(h5) @ x_true + rng.normal(scale=0.01, size=6)
        c = rng.normal(scale=0.02, size=4)
        atk = attack_from_c(h5, c)
        clean = wls_estimate(h5, z, w5)
        attacked = wls_estimate(h5, z + atk.a, w5)
        verdicts_clean = (
            chi_square_test(clean, 6, 4, 0.99).bad_data_detected,
            lnr_test(clean, omega, 0.99).bad_data_detected,
        )
        verdicts_attacked = (
            chi_square_test(attacked, 6, 4, 0.99).bad_data_detected,
            lnr_test(attacked, omega, 0.99).bad_data_detected,
        )
        yield c, clean, attacked, verdicts_clean, verdicts_attacked


@criterion(1, "stealth: residual norms and detector verdicts unchanged, 1000/1000")
def test_criterion_1_stealth_guarantee(h5, w5):
    agree = 0
    for _, clean, attacked, v_clean, v_attacked in _stealth_sweep(h5, w5):
        n_clean = math.sqrt(clean.objective)
        n_attacked = math.sqrt(attacked.objective)
        assert abs(n_attacked - n_clean) <= 1e-9 * (1.0 + n_clean)
        np.testing.assert_allclose(attacked.residual, clean.residual, atol=1e-9)
        assert v_clean == v_attacked
        agree += 1
    assert agree == 1000


@criterion(2, "state-shift exactness: corrupted estimate moves by exactly c")
def test_criterion_2_state_shift(h5, w5):
    for c, clean, attacked, _, _ in _stealth_sweep(h5, w5):
        np.testing.assert_allclose(attacked.state - clean.state, c, atol=1e-9)


@criterion(3, "every meter subset of size m - n + 1 = 3 admits an attack")
def test_criterion_3_feasibility(h5):
    subsets = list(combinations(range(6), 3))
    assert len(subsets) == 20
    for support in subsets:
        atk = random_constrained_attack(h5, support, seed=13, magnitude=0.1)
        norm = np.linalg.norm(atk.a)
        assert norm > 0
        assert set(atk.support) <= set(support)
        assert np.linalg.norm(atk.a - dense(h5) @ atk.c) <= 1e-10 * norm


@criterion(4, "shipped case 1/2/3 verdicts, with 1000-trial rates for 2 and 3")
def test_criterion_4_three_cases(h5, z5, w5):
    # (i) clean data passes both detectors at 99%
    case1 = run_scenario(parse_scenario(CASES_5BUS / "case1.json"))
    assert not any(rep.bad_data_detected for rep in case1.detections)

    # (ii) 50 sigma error on the shipped meter: detected by both and named
    # by LNR in at least 95% of 1000 seeded noisy trials
    case2 = run_scenario(parse_scenario(CASES_5BUS / "case2.json"))
    assert all(rep.bad_data_detected for rep in case2.detections)
    assert case2.detections[1].suspect_meter == 2
    mc = run_monte_carlo(
        Scenario(
            name="case2-mc",
            network_path=CASES_5BUS / "network.json",
            meters_path=CASES_5BUS / "meters.json",
            measurements=SimulateSource(x_true=tuple(TABLE_XHAT), seed=0),
            attack=GrossErrorSpec(meter=2, magnitude_pu=0.5),
            detectors=BOTH,
        ),
        trials=1000,
        base_seed=42,
    )
    assert mc.identified >= 950, f"identified {mc.identified}/1000"
    for rate in mc.rates:
        assert rate.detections >= 950

    # (iii) random a = Hc attacks on the shipped measurements pass both
    # detectors in 1000/1000 trials
    case3 = run_scenario(parse_scenario(CASES_5BUS / "case3.json"))
    assert not any(rep.bad_data_detected for rep in case3.detections)
    omega = residual_covariance(h5, w5)
    passed = 0
    for trial in range(1000):
        atk = random_constrained_attack(h5, (0, 2, 3), seed=trial, magnitude=0.1)
        est = wls_estimate(h5, z5 + atk.a, w5)
        ok = not chi_square_test(est, 6, 4, 0.99).bad_data_detected
        ok &= not lnr_test(est, omega, 0.99).bad_data_detected
        passed += ok
    assert passed == 1000, f"stealth attacks passed {passed}/1000"


@criterion(5, "detector calibration: FP rate in [0.005, 0.02], thresholds match oracles")
def test_criterion_5_calibration():
    assert chi_square_quantile(0.99, 2) == pytest.approx(9.2103, abs=1e-3)
    assert gaussian_quantile(1 - (1 - 0.99) / 2) == pytest.approx(2.5758, abs=1e-3)
    mc = run_monte_carlo(
        Scenario(
            name="clean-fp",
            network_path=CASES_5BUS / "network.json",
            meters_path=CASES_5BUS / "meters.json",
            measurements=SimulateSource(x_true=tuple(TABLE_XHAT), seed=0),
            detectors=(DetectorSpec(DetectionMethod.CHI_SQUARE, 0.99),),
        ),
        trials=10_000,
        base_seed=7,
    )
    rate = mc.rates[0].detection_rate
    assert 0.005 <= rate <= 0.02, f"chi-square false-positive rate {rate}"


@criterion(6, "pre-attack market: uniform 15 $/MWh, dispatch (250, 250, 0) MW")
def test_criterion_6_pre_attack_market(market5):
    result = solve_dc_opf(market5)
    for bus in (1, 2, 3, 4, 5):
        assert result.lmp[bus] == pytest.approx(15.0, abs=1e-6)
        assert f"{result.lmp[bus]:.6f}" == "15.000000"
    np.testing.assert_allclose(result.gen_output, [250.0, 250.0, 0.0], atol=1e-6)


@criterion(7, "post-attack market: bus 3 at 15, buses 2/4/5 above, bus 4 max, unit 3 on")
def test_criterion_7_post_attack_market():
    report = run_scenario(parse_scenario(CASES_5BUS / "profit.json"))
    after = report.market_after
    assert after.lmp[3] == pytest.approx(15.0, abs=1e-6)
    for bus in (2, 4, 5):
        assert after.lmp[bus] > 15.0
    assert after.lmp[4] == max(after.lmp.values())
    assert after.gen_output[2] > 0.0
    assert len(after.binding_lines) == 1


@criterion(8, "duals: +0.1 MW re-solve moves cost by 0.1 * LMP; congested flows at limit")
def test_criterion_8_dual_consistency(net5_limited, meters5, h5, z5, w5):
    from fdilab.caseio import parse_market
    from fdilab.market import DispatchCase, Load
    from fdilab.attack import targeted_attack

    base_case = parse_market(CASES_5BUS / "market.json", net5_limited)
    clean = wls_estimate(h5, z5, w5)
    attacked = wls_estimate(h5, z5 + targeted_attack(h5, {h5.state_index(3): 0.03}).a, w5)
    perceived = perceived_case_from_attack(base_case, meters5, clean.fitted, attacked.fitted)

    for case in (base_case, perceived):
        solution = solve_dc_opf(case)
        loads = case.load_by_bus()
        for bus in case.network.buses:
            bumped_loads = dict(loads)
            bumped_loads[bus] += 0.1
            bumped = DispatchCase(
                network=case.network,
                generators=case.generators,
                loads=tuple(Load(bus=b, mw=mw) for b, mw in bumped_loads.items()),
            )
            delta = solve_dc_opf(bumped).objective - solution.objective
            assert delta == pytest.approx(0.1 * solution.lmp[bus], abs=1e-3), (
                f"bus {bus}: finite difference {delta} vs dual {0.1 * solution.lmp[bus]}"
            )
        for b in solution.binding_lines:
            limit = case.network.branches[b].limit_mw
            assert abs(solution.flows[b]) == pytest.approx(limit, abs=1e-6)


@criterion(9, "arbitrage: buy bus 1 before, sell bus 4 after, positive spread")
def test_criterion_9_arbitrage():
    report = run_scenario(parse_scenario(CASES_5BUS / "profit.json"))
    spread = report.market_after.lmp[4] - report.market_before.lmp[1]
    assert spread > 0
    profit = arbitrage_profit(report.market_before, report.market_after, 1, 4, 1.0)
    assert profit == pytest.approx(spread, abs=1e-12)
    assert profit == pytest.approx(report.profit_per_h, abs=1e-12)
    # the shipped calibration lands on the published 17.88 $/MWh spread
    assert profit == pytest.approx(17.884615, abs=1e-6)


@criterion(10, "estimator properties: orthogonality, round-trip, sigma invariance")
def test_criterion_10_estimator_properties(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)
    grad = dense(h5).T @ (res.residual / w5.sigmas**2)
    assert np.max(np.abs(grad)) < 1e-8

    x_true = np.array(TABLE_XHAT)
    z_exact = dense(h5) @ x_true  # the noiseless draw, bit for bit
    round_trip = wls_estimate(h5, z_exact, w5)
    np.testing.assert_allclose(round_trip.state, x_true, atol=1e-10)

    rescaled = wls_estimate(h5, z5, WeightModel(w5.sigmas * 3.7))
    np.testing.assert_allclose(rescaled.state, res.state, atol=1e-10)
