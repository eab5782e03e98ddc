import dataclasses
import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CASES_5BUS, TABLE_XHAT, empty_omega_memo
from fdilab import caseio, detection, scenario
from fdilab.attack import random_constrained_attack
from fdilab.detection import DetectionMethod, chi_square_test, lnr_test, residual_covariance
from fdilab.errors import DimensionMismatch, FdiLabError, ValidationError
from fdilab.estimation import WeightModel, simulate_measurements, wls_estimate
from fdilab.network import build_h_matrix
from fdilab.scenario import (
    DetectorSpec,
    GrossErrorSpec,
    RandomAttackSpec,
    Scenario,
    SimulateSource,
    parse_scenario,
    run_monte_carlo,
    run_scenario,
)

BOTH = (DetectorSpec(DetectionMethod.CHI_SQUARE), DetectorSpec(DetectionMethod.LNR))


def simulated_scenario(attack=None, seed=1):
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


def test_an_unknown_attack_spec_fails_at_the_attack_stage():
    with pytest.raises(ValidationError, match="^unsupported attack spec 'random'$") as info:
        run_scenario(simulated_scenario(attack="random"))
    assert info.value.stage == "attack"


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
    short = dataclasses.replace(simulated_scenario(), measurements=SimulateSource(x_true=(0.0,) * 3, seed=1))
    with pytest.raises(DimensionMismatch):
        run_monte_carlo(short, trials=10, base_seed=0)


# -- batched Monte Carlo against a per-trial reference ------------------------------

def reference_monte_carlo(scn, trials, base_seed):
    """The per-trial loop that run_monte_carlo batches, built from the one-shot public functions.

    Returns (method, confidence, detections, trials) per detector, the mean
    statistics and the identified count.
    """
    net = caseio.parse_network(scn.network_path)
    meters = caseio.parse_meters(scn.meters_path, net)
    H = build_h_matrix(net, meters)
    w = WeightModel(meters.sigmas)
    perturbation = None
    if isinstance(scn.attack, GrossErrorSpec):
        perturbation = np.zeros(H.m)
        perturbation[scn.attack.meter] = scn.attack.magnitude_pu
    elif isinstance(scn.attack, RandomAttackSpec):
        perturbation = random_constrained_attack(
            H, scn.attack.support, seed=scn.attack.seed, magnitude=scn.attack.magnitude
        ).a
    omega = residual_covariance(H, w)
    counts, sums = [0] * len(scn.detectors), [0.0] * len(scn.detectors)
    lnr = any(spec.method is DetectionMethod.LNR for spec in scn.detectors)
    identified = 0 if isinstance(scn.attack, GrossErrorSpec) and lnr else None
    for trial in range(trials):
        z = simulate_measurements(H, scn.measurements.x_true, w, seed=np.random.default_rng([base_seed, trial]))
        if perturbation is not None:
            z = z + perturbation
        res = wls_estimate(H, z, w)
        reports = [
            chi_square_test(res, spec.confidence)
            if spec.method is DetectionMethod.CHI_SQUARE
            else lnr_test(res, omega, spec.confidence)
            for spec in scn.detectors
        ]
        for d, rep in enumerate(reports):
            counts[d] += rep.bad_data_detected
            sums[d] += rep.statistic
        suspects = [rep.suspect_meter for rep in reports if rep.method is DetectionMethod.LNR]
        if identified is not None and all(rep.bad_data_detected for rep in reports):
            identified += suspects[-1] == scn.attack.meter
    rates = [(spec.method, spec.confidence, counts[d], trials) for d, spec in enumerate(scn.detectors)]
    return rates, [total / trials for total in sums], identified


CHI_ONLY = (DetectorSpec(DetectionMethod.CHI_SQUARE, 0.95),)
STEALTH = RandomAttackSpec(support=(0, 2, 3), seed=7, magnitude=0.1)


@pytest.mark.parametrize(
    "attack, detectors, block_trials",
    [
        (None, BOTH, None),
        (GrossErrorSpec(meter=2, magnitude_pu=0.05), BOTH, None),
        (GrossErrorSpec(meter=4, magnitude_pu=0.5), BOTH, None),   # tied with meters 0 and 1
        (GrossErrorSpec(meter=3, magnitude_pu=0.05), BOTH, None),  # tied with meter 5, often missed
        (STEALTH, BOTH, None),
        (GrossErrorSpec(meter=2, magnitude_pu=0.05), CHI_ONLY, None),
        (GrossErrorSpec(meter=0, magnitude_pu=0.04), BOTH, 7),     # 300 trials in 43 blocks
        (None, BOTH, 64),
    ],
    ids=["clean", "gross", "gross-tied", "gross-tied-weak", "stealth", "chi-only", "blocks-of-7", "blocks-of-64"],
)
def test_monte_carlo_matches_per_trial_reference(monkeypatch, attack, detectors, block_trials):
    if block_trials is not None:
        monkeypatch.setattr(scenario, "MC_BLOCK_ELEMENTS", block_trials * 6)
    scn = dataclasses.replace(simulated_scenario(attack), detectors=detectors)
    summary = run_monte_carlo(scn, trials=300, base_seed=17)
    rates, means, identified = reference_monte_carlo(scn, trials=300, base_seed=17)
    assert [(r.method, r.confidence, r.detections, r.trials) for r in summary.rates] == rates
    assert summary.identified == identified
    # a block takes matrix-matrix products where one trial takes matrix-vector
    # ones, so each statistic may differ in its last few bits
    assert [r.mean_statistic for r in summary.rates] == pytest.approx(means, rel=1e-12)


@pytest.mark.parametrize("detectors", [CHI_ONLY, ()], ids=["chi-only", "none"])
def test_monte_carlo_without_lnr_reports_no_identification(detectors):
    # only an LNR detector names a suspect: without one, identification is not reported, not reported as 0
    scn = dataclasses.replace(simulated_scenario(GrossErrorSpec(meter=2, magnitude_pu=0.5)), detectors=detectors)
    summary = run_monte_carlo(scn, trials=200, base_seed=0)
    assert summary.identified is None and summary.identification_accuracy is None
    assert "identification" not in summary.to_text() + summary.to_csv()


def test_monte_carlo_reference_sees_detections():
    # the reference comparison above is not vacuous: rates lie strictly between 0 and all trials
    scn = simulated_scenario(GrossErrorSpec(meter=3, magnitude_pu=0.05))
    (chi, lnr), _, identified = reference_monte_carlo(scn, trials=300, base_seed=17)
    assert 0 < chi[2] < 300 and 0 < lnr[2] < 300 and 0 < identified < 300


# Seeds and trial numbers where an int gains a uint32 word of entropy.
WORD_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64)
near_word_edges = st.builds(lambda edge, back: max(0, edge - back), st.sampled_from(WORD_EDGES), st.integers(0, 8))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    base_seed=st.one_of(near_word_edges, st.integers(0, 2**70)),
    first=st.one_of(near_word_edges, st.integers(0, 2**70)),
    trials=st.integers(1, 12),
    m=st.integers(1, 8),
)
@example(base_seed=2**64 - 1, first=2**32 - 5, trials=10, m=3)
@example(base_seed=2**128 + 5, first=2**64 - 2, trials=4, m=2)
def test_noise_block_has_the_bits_of_one_generator_per_trial(base_seed, first, trials, m):
    # The noise contract is default_rng([base_seed, t]); the block hash re-implements
    # numpy's seeding, so a numpy release that changed it would fail here.
    out = np.empty((trials, m))
    scenario._noise_block(base_seed, first, out)
    reference = np.stack([np.random.default_rng([base_seed, first + k]).standard_normal(m) for k in range(trials)])
    assert out.tobytes() == reference.tobytes()


def write_critical_case(directory):
    """3-bus chain whose meter on branch 1-2 is critical (see test_detection)."""
    (directory / "network.json").write_text(json.dumps({
        "base_mva": 100, "slack": 1, "buses": [1, 2, 3],
        "branches": [{"from": 1, "to": 2, "x_pu": 1.0, "limit_mw": None},
                     {"from": 2, "to": 3, "x_pu": 1.0, "limit_mw": None}],
    }))
    (directory / "meters.json").write_text(json.dumps(
        {"meters": [{"branch": [1, 2], "sigma": 0.01}, {"branch": [2, 3], "sigma": 0.01},
                    {"branch": [2, 3], "sigma": 0.01}]}
    ))
    return Scenario(
        name="critical",
        network_path=directory / "network.json",
        meters_path=directory / "meters.json",
        measurements=SimulateSource(x_true=(0.01, -0.02), seed=0),
        detectors=BOTH,
    )


def test_monte_carlo_warns_about_critical_meters_once_per_run(tmp_path):
    scn = write_critical_case(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summary = run_monte_carlo(scn, trials=50, base_seed=3)
    assert [str(w.message) for w in caught] == ["critical meters excluded from LNR test: [0]"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rates, _, _ = reference_monte_carlo(scn, trials=50, base_seed=3)
    assert [(r.method, r.confidence, r.detections, r.trials) for r in summary.rates] == rates


def test_monte_carlo_computes_each_threshold_once(monkeypatch):
    calls = []
    for name in ("chi_square_quantile", "gaussian_quantile"):
        original = getattr(detection, name)
        monkeypatch.setattr(detection, name, lambda *args, _f=original: calls.append(_f) or _f(*args))
    monkeypatch.setattr(scenario, "MC_BLOCK_ELEMENTS", 60)
    run_monte_carlo(simulated_scenario(), trials=100, base_seed=1)
    assert len(calls) == 2  # one per detector spec, for 100 trials in 10 blocks


@pytest.mark.parametrize(
    "case, attacked",
    [("case1.json", False), ("case2.json", True), ("case3.json", True)],
    ids=["detect", "gross", "random"],
)
def test_scenario_factors_its_gain_once(factorisations, case, attacked):
    report = run_scenario(parse_scenario(CASES_5BUS / case))
    assert [rep.method for rep in report.detections] == [DetectionMethod.CHI_SQUARE, DetectionMethod.LNR]
    assert (report.clean is not None) == attacked
    # both estimates and both detectors share one model
    assert factorisations == [(4, 4)]


def test_monte_carlo_factors_its_gain_once(factorisations):
    run_monte_carlo(simulated_scenario(GrossErrorSpec(meter=2, magnitude_pu=0.5)), trials=10_000, base_seed=1)
    assert factorisations == [(4, 4)]


def test_monte_carlo_past_one_block_factors_once_more_and_keeps_its_reports(factorisations, monkeypatch):
    # 1,000 trials in blocks of 300: the LNR detector's diag(Omega) consumes the factor
    # after the first block, so the second block factors the gain again, to the same bits
    monkeypatch.setattr(scenario, "MC_BLOCK_ELEMENTS", 300 * 6)
    summary = run_monte_carlo(simulated_scenario(GrossErrorSpec(meter=2, magnitude_pu=0.05)), trials=1000, base_seed=1)
    assert factorisations == [(4, 4), (4, 4)]
    assert summary.to_text().splitlines()[1:] == [
        "  chi_square: detection rate = 558/1000 = 0.558000, mean statistic = 11.370555",
        "  largest_normalized_residual: detection rate = 708/1000 = 0.708000, mean statistic = 3.140758",
        "  identification: 485/1000 = 0.485000",
    ]
    assert hashlib.sha256(summary.to_text().encode()).hexdigest() == (
        "ce3f4f55673a6a7c752f8185e7bdacdc7c5ea0e34b853d04905d663d479c6526"
    )
    assert hashlib.sha256(summary.to_csv().encode()).hexdigest() == (
        "5c1cbbf70904b1541727c4e072d9c35caf75e574d2333ae4d9ddc39afdc1ecbe"
    )


def test_monte_carlo_past_one_block_on_a_warm_memo_factors_once(factorisations, inversions, monkeypatch):
    # the second run reads diag(Omega) from the memo, so no block's fit loses its factor
    monkeypatch.setattr(scenario, "MC_BLOCK_ELEMENTS", 300 * 6)
    scn = simulated_scenario(GrossErrorSpec(meter=2, magnitude_pu=0.05))
    cold = run_monte_carlo(scn, trials=1000, base_seed=1)
    factorisations.clear()
    warm = run_monte_carlo(scn, trials=1000, base_seed=1)
    assert factorisations == [(4, 4)] and inversions == [(4, 4)]
    assert (warm.to_text(), warm.to_csv()) == (cold.to_text(), cold.to_csv())


def test_runs_on_one_grid_invert_its_gain_once(inversions):
    first, second = (run_scenario(parse_scenario(CASES_5BUS / "case1.json")) for _ in range(2))
    assert inversions == [(4, 4)]
    assert (first.to_text(), first.to_csv()) == (second.to_text(), second.to_csv())
    run_monte_carlo(parse_scenario(CASES_5BUS / "mc_clean.json"), trials=100, base_seed=1)
    assert inversions == [(4, 4)]


def write_random_grid(directory, seed: int, buses: int) -> list:
    """A random grid of ``buses`` buses with its meters and market, and one scenario file per
    pipeline kind, the market-free detect scenario last; returns their paths.

    The network is a random tree over buses 1..N, bus 1 the slack, plus up to N extra lines.
    Every branch is metered a random way round, and about 30% of them both ways. Pins are
    small and every bus has a large load, so no perceived load goes negative.
    """
    rng = np.random.default_rng([seed, buses])
    pairs = [(k, int(rng.integers(1, k))) for k in range(2, buses + 1)]
    pairs += [tuple(int(b) for b in rng.choice(np.arange(1, buses + 1), 2, replace=False))
              for _ in range(int(rng.integers(0, buses + 1)))]
    meters = []
    for f, t in pairs:
        ends = [f, t] if rng.random() < 0.5 else [t, f]
        for pair in [ends, ends[::-1]] if rng.random() < 0.3 else [ends]:
            meters.append({"branch": pair, "sigma": float(rng.choice([0.005, 0.01, 0.02]))})
    m, n = len(meters), buses - 1
    reactances = rng.uniform(0.05, 0.5, len(pairs))
    network = {"base_mva": 100, "slack": 1, "buses": list(range(1, buses + 1)),
               "branches": [{"from": f, "to": t, "x_pu": float(x)} for (f, t), x in zip(pairs, reactances)]}
    market = {"generators": [{"bus": 1, "price": 10, "pmax": 200 * buses, "pmin": 0},
                             {"bus": int(rng.integers(1, buses + 1)), "price": 20, "pmax": 100, "pmin": 0}],
              "loads": [{"bus": b, "mw": 100} for b in range(1, buses + 1)]}
    for name, doc in (("network", network), ("meters", {"meters": meters}), ("market", market)):
        (directory / f"{name}.json").write_text(json.dumps(doc))
    leg = {"file": "market.json", "buy_bus": 1, "sell_bus": int(rng.integers(2, buses + 1))}
    pinned = {str(int(rng.integers(2, buses + 1))): 0.001}
    kinds = {
        "estimate": ({"type": "none"}, [], None),
        "gross": ({"type": "gross_error", "meter": int(rng.integers(m)), "magnitude_pu": 0.5}, None, None),
        "random": ({"type": "random", "support": sorted(rng.choice(m, m - n + 1, replace=False).tolist()),
                    "seed": 7, "magnitude": 0.1}, None, None),
        "targeted": ({"type": "targeted", "pinned": pinned}, None, leg),
        "detect+market": ({"type": "none"}, None, leg),
        "detect": ({"type": "none"}, None, None),
    }
    x_true = rng.normal(scale=0.05, size=n).tolist()
    paths = []
    for kind, (attack, detectors, market_leg) in kinds.items():
        doc = {"name": kind, "network": "network.json", "meters": "meters.json",
               "measurements": {"simulate": {"x_true": x_true, "seed": 11}}, "attack": attack, "market": market_leg}
        if detectors is not None:
            doc["detectors"] = detectors
        paths.append(directory / f"{kind}.json")
        paths[-1].write_text(json.dumps(doc))
    return paths


def report_bytes(path):
    """The text and CSV of a scenario's report and of a 20-trial Monte Carlo of it, or the error either raises."""
    try:
        scn = parse_scenario(path)
        report, summary = run_scenario(scn), run_monte_carlo(scn, trials=20, base_seed=3)
        return report.to_text(), report.to_csv(), summary.to_text(), summary.to_csv()
    except FdiLabError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), buses=st.integers(2, 16))
@pytest.mark.filterwarnings("ignore:critical meters excluded")
def test_reports_on_a_warm_memo_keep_the_bytes_of_a_cold_one(seed, buses):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_random_grid(Path(tmp), seed, buses)
        cold = []
        for path in paths:
            empty_omega_memo()
            cold.append(report_bytes(path))
        # the memo now holds the grid's diag(Omega), unless the last run formed none
        assert [report_bytes(path) for path in paths] == cold


@pytest.mark.xfail(strict=True, raises=ValidationError,
                   reason="the attack leaves about -2.8e-14 MW of round-off at a bus with no load, "
                          "which the market refuses as a negative demand")
def test_targeted_market_scenario_dispatches_with_a_bus_that_has_no_load(tmp_path):
    write_random_grid(tmp_path, 1, 9)
    market = json.loads((tmp_path / "market.json").read_text())
    market["loads"] = [load for load in market["loads"] if load["bus"] != 1]
    (tmp_path / "market.json").write_text(json.dumps(market))
    report = run_scenario(parse_scenario(tmp_path / "targeted.json"))
    assert report.market_after is not None
