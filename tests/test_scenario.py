import numpy as np
import pytest

from conftest import CASES_5BUS, TABLE_XHAT
from fdilab.detection import DetectionMethod
from fdilab.errors import ValidationError
from fdilab.scenario import (
    DetectorSpec,
    GrossErrorSpec,
    NoAttack,
    RandomAttackSpec,
    Scenario,
    SimulateSource,
    parse_scenario,
    run_monte_carlo,
    run_scenario,
)

BOTH = (DetectorSpec(DetectionMethod.CHI_SQUARE), DetectorSpec(DetectionMethod.LNR))


def simulated_scenario(attack=NoAttack(), seed=1):
    return Scenario(
        name="synthetic",
        network_path=CASES_5BUS / "network.json",
        meters_path=CASES_5BUS / "meters.json",
        measurements=SimulateSource(x_true=tuple(TABLE_XHAT), seed=seed),
        attack=attack,
        detectors=BOTH,
    )


def test_detector_spec_still_importable_from_scenario():
    from fdilab import detection

    assert DetectorSpec is detection.DetectorSpec


def test_case1_clean_passes_both():
    report = run_scenario(parse_scenario(CASES_5BUS / "case1.json"))
    assert len(report.detections) == 2
    assert not any(rep.bad_data_detected for rep in report.detections)


def test_case2_gross_error_detected_and_identified():
    report = run_scenario(parse_scenario(CASES_5BUS / "case2.json"))
    chi, lnr = report.detections
    assert chi.bad_data_detected and lnr.bad_data_detected
    assert lnr.suspect_meter == 2


def test_case3_stealth_attack_passes_both():
    report = run_scenario(parse_scenario(CASES_5BUS / "case3.json"))
    assert not any(rep.bad_data_detected for rep in report.detections)
    # yet the state moved by exactly the attack's c
    shift = report.observed.state - report.clean.state
    np.testing.assert_allclose(shift, report.attack_vector.c, atol=1e-9)
    assert np.linalg.norm(report.attack_vector.c) > 0


def test_profit_scenario_report():
    report = run_scenario(parse_scenario(CASES_5BUS / "profit.json"))
    assert not any(rep.bad_data_detected for rep in report.detections)
    for bus in (1, 2, 3, 4, 5):
        assert report.market_before.lmp[bus] == pytest.approx(15.0, abs=1e-6)
    after = report.market_after
    assert after.lmp[3] == pytest.approx(15.0, abs=1e-6)
    assert all(after.lmp[b] > 15.0 for b in (2, 4, 5))
    assert after.lmp[4] == max(after.lmp.values())
    assert after.gen_output[2] > 0
    assert report.profit_per_h == pytest.approx(after.lmp[4] - 15.0, abs=1e-9)
    assert report.profit_per_h > 0


def test_error_names_failing_stage(tmp_path):
    import json

    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps(
            {
                "name": "broken",
                "network": str(CASES_5BUS / "network.json"),
                "meters": str(CASES_5BUS / "meters.json"),
                "measurements": {"file": str(tmp_path / "missing.json")},
            }
        )
    )
    with pytest.raises(Exception) as info:
        run_scenario(parse_scenario(scenario))
    assert getattr(info.value, "stage", None) == "measurements"


def test_report_rendering_deterministic():
    scn = parse_scenario(CASES_5BUS / "profit.json")
    r1, r2 = run_scenario(scn), run_scenario(scn)
    assert r1.to_text() == r2.to_text()
    assert r1.to_csv() == r2.to_csv()
    rows = r1.csv_rows()
    assert all(len(r) == 4 for r in rows)
    stages = {r[0] for r in rows}
    assert {"estimation", "attack", "market.before", "market.after", "market"} <= stages


def test_monte_carlo_deterministic():
    scn = simulated_scenario()
    s1 = run_monte_carlo(scn, trials=64, base_seed=11)
    s2 = run_monte_carlo(scn, trials=64, base_seed=11)
    assert s1 == s2
    assert s1.to_text() == s2.to_text()


def test_monte_carlo_stealth_matches_clean_rates():
    clean = run_monte_carlo(simulated_scenario(), trials=200, base_seed=5)
    attacked = run_monte_carlo(
        simulated_scenario(attack=RandomAttackSpec(support=(0, 2, 3), seed=7, magnitude=0.1)),
        trials=200,
        base_seed=5,
    )
    for r_clean, r_attacked in zip(clean.rates, attacked.rates):
        assert r_clean.detections == r_attacked.detections


def test_monte_carlo_gross_error_rates():
    summary = run_monte_carlo(
        simulated_scenario(attack=GrossErrorSpec(meter=2, magnitude_pu=0.5)),
        trials=200,
        base_seed=9,
    )
    for rate in summary.rates:
        assert rate.detection_rate >= 0.99
    assert summary.identification_accuracy >= 0.95


def test_monte_carlo_rejects_file_source():
    with pytest.raises(ValidationError):
        run_monte_carlo(parse_scenario(CASES_5BUS / "case1.json"), trials=10, base_seed=0)


def test_monte_carlo_argument_checks():
    with pytest.raises(ValidationError):
        run_monte_carlo(simulated_scenario(), trials=0, base_seed=0)
    with pytest.raises(ValidationError):
        run_monte_carlo(simulated_scenario(), trials=10, base_seed=-1)
