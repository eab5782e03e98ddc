import json

import numpy as np
import pytest

from conftest import TABLE_J, TABLE_XHAT, dense
from fdilab.errors import DimensionMismatch, SingularGainMatrix, ValidationError
from fdilab.estimation import (
    WeightModel,
    WlsModel,
    simulate_measurements,
    wls_estimate,
)
from fdilab.network import MeasurementMatrix, build_h_matrix
from fdilab.scenario import GrossErrorSpec, Scenario, SimulateSource, run_scenario


def test_noise_free_data_is_fixed_point(h5, w5):
    rng = np.random.default_rng(42)
    for _ in range(20):
        x_true = rng.normal(scale=0.05, size=4)
        res = wls_estimate(h5, dense(h5) @ x_true, w5)
        np.testing.assert_allclose(res.state, x_true, atol=1e-12)
        assert res.objective < 1e-10


def test_table_measurements_regression(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)
    np.testing.assert_allclose(res.state, TABLE_XHAT, rtol=1e-9)
    assert res.objective == pytest.approx(TABLE_J, rel=1e-9)
    np.testing.assert_allclose(res.residual, z5 - res.fitted, atol=1e-15)


def test_square_invertible_system(one_state):
    res = wls_estimate(one_state(), [0.5], WeightModel([1.0]))
    assert res.state[0] == pytest.approx(-0.5, abs=1e-14)
    assert abs(res.residual[0]) < 1e-14


def test_orthogonality_of_residual(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)
    grad = dense(h5).T @ (res.residual / w5.sigmas**2)
    assert np.max(np.abs(grad)) < 1e-8, f"H' R^-1 r = {grad}"


def test_reestimation_idempotent(h5, z5, w5):
    first = wls_estimate(h5, z5, w5)
    second = wls_estimate(h5, first.fitted, w5)
    np.testing.assert_allclose(second.state, first.state, atol=1e-10)


def test_sigma_rescaling_leaves_state_unchanged(h5, z5):
    base = wls_estimate(h5, z5, WeightModel(np.full(6, 0.01)))
    scaled = wls_estimate(h5, z5, WeightModel(np.full(6, 0.07)))
    np.testing.assert_allclose(scaled.state, base.state, atol=1e-10)


def test_dimension_mismatch(h5, w5):
    with pytest.raises(DimensionMismatch):
        wls_estimate(h5, np.zeros(5), w5)
    with pytest.raises(DimensionMismatch):
        wls_estimate(h5, np.zeros(6), WeightModel(np.full(5, 0.01)))
    with pytest.raises(DimensionMismatch):
        simulate_measurements(h5, np.zeros(4), WeightModel(np.full(5, 0.01)))


def test_singular_gain_matrix(h5, z5):
    # a sigma whose 1/sigma^2 overflows makes a gain that is not finite: it
    # cannot be factored, and that fails the estimate with no RuntimeWarning
    sigmas = np.full(6, 0.01)
    sigmas[2] = 1e-320
    with pytest.raises(SingularGainMatrix, match="^gain matrix is singular: "):
        wls_estimate(h5, z5, WeightModel(sigmas))


def test_weight_model_validation():
    for bad in (0.0, -0.01):
        with pytest.raises(ValidationError, match="^all sigmas must be finite and > 0$"):
            WeightModel(np.array([0.01, bad]))
    with pytest.raises(ValidationError, match="^sigmas must be a 1-D vector$"):
        WeightModel([[0.01, 0.02]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_plain_sigma_rejected(bad):
    # a plain sigma vector reaches wls_estimate and simulate_measurements only
    # through WeightModel, which refuses a non-finite entry
    sigmas = np.full(6, 0.01)
    sigmas[0] = bad
    with pytest.raises(ValidationError, match="^all sigmas must be finite and > 0$"):
        WeightModel(sigmas)


def test_simulate_deterministic_per_seed(h5, w5):
    x = np.zeros(4)
    z1 = simulate_measurements(h5, x, w5, seed=2024)
    z2 = simulate_measurements(h5, x, w5, seed=2024)
    z3 = simulate_measurements(h5, x, w5, seed=2025)
    np.testing.assert_array_equal(z1, z2)
    assert not np.array_equal(z1, z3)


def test_simulate_noise_scale(one_state):
    # 10k draws from one meter: sample std within 5% of sigma
    H, w = one_state(), WeightModel([0.01])
    draws = np.array(
        [simulate_measurements(H, [0.0], w, seed=s)[0] for s in range(10_000)]
    )
    assert np.std(draws) == pytest.approx(0.01, rel=0.05)


def test_simulate_rejects_true_flows_that_overflow(h5, w5):
    with pytest.raises(ValidationError, match="^the flows H x_true of the true state must be finite$"):
        simulate_measurements(h5, [1e307, 0.0, 0.0, 0.0], w5, seed=0)


def test_wls_model_factors_once_on_first_use(h5, z5, w5):
    model = WlsModel(h5, w5)
    assert "factor" not in vars(model)
    first = model.estimate(z5)
    factor = model.factor
    second = model.estimate(z5 + 0.01)
    assert model.factor is factor
    one_shot = wls_estimate(h5, z5, w5)
    for name in ("state", "fitted", "residual", "sigmas"):
        np.testing.assert_array_equal(getattr(first, name), getattr(one_shot, name))
    assert first.objective == one_shot.objective
    np.testing.assert_array_equal(second.state, wls_estimate(h5, z5 + 0.01, w5).state)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_measurement_rejected(h5, z5, w5, bad):
    z = z5.copy()
    z[3] = bad
    with pytest.raises(ValidationError, match="finite"):
        wls_estimate(h5, z, w5)


def test_fit_estimates_each_row_of_a_block(h5, w5):
    model = WlsModel(h5, w5)
    rng = np.random.default_rng(4)
    Z = dense(h5) @ rng.normal(scale=0.02, size=(4, 25)) + rng.normal(scale=0.01, size=(6, 25))
    block = model.fit(Z.T)
    assert block.state.shape == (25, 4) and block.residual.shape == (25, 6)
    assert block.objective.shape == (25,)
    for t, z in enumerate(Z.T):
        one = model.estimate(z)
        # a one-row block takes the arithmetic of a single estimate, bit for bit
        single = model.fit(z[None, :])
        assert np.array_equal(single.state[0], one.state) and single.objective[0] == one.objective
        np.testing.assert_allclose(block.state[t], one.state, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(block.residual[t], one.residual, rtol=1e-9, atol=1e-15)
        assert block.objective[t] == pytest.approx(one.objective, rel=1e-12)


def test_fit_checks_its_block(h5, w5):
    model = WlsModel(h5, w5)
    with pytest.raises(DimensionMismatch):
        model.fit(np.zeros((3, 5)))
    with pytest.raises(DimensionMismatch):
        model.fit(np.zeros(6))
    Z = np.zeros((3, 6))
    Z[1, 2] = np.inf
    with pytest.raises(ValidationError):
        model.fit(Z)


# -- the shared model of a MeasurementMatrix and a WeightModel ---------------------

def test_h_values_and_sigmas_are_read_only(net5, meters5):
    H, w = build_h_matrix(net5, meters5), WeightModel(meters5.sigmas)
    with pytest.raises(ValueError):
        H.edges[0, 0] = 1
    with pytest.raises(ValueError):
        H.weights[0] = 1.0
    with pytest.raises(ValueError):
        w.sigmas[0] = 1.0


def test_read_only_arrays_are_copies_of_a_callers_array(h5):
    edges, weights, sigmas = h5.edges.copy(), h5.weights.copy(), np.full(6, 0.01)
    H, w = MeasurementMatrix(h5.state_buses, edges, weights), WeightModel(sigmas)
    assert edges.flags.writeable and weights.flags.writeable and sigmas.flags.writeable
    edges[0, 0], weights[0], sigmas[0] = 3, 7.0, 7.0
    assert np.array_equal(H.edges, h5.edges) and np.array_equal(H.weights, h5.weights)
    assert w.sigmas[0] == 0.01
    for array in (H.edges, H.weights, w.sigmas):
        assert not array.flags.writeable
    frozen = np.full(6, 0.01)
    frozen.flags.writeable = False
    assert WeightModel(frozen).sigmas is frozen  # a read-only array that owns its data is kept
    single = frozen.astype(np.float32)
    single.flags.writeable = False
    for copied in (frozen[1:], single):  # a read-only view, or another dtype, is copied
        assert WeightModel(copied).sigmas is not copied


def test_meter_set_weights_share_its_sigmas(meters5):
    # each meter set holds its sigmas once, not a second copy in its WeightModel
    assert meters5.weight_model.sigmas is meters5.sigmas
    assert WeightModel(meters5.sigmas).sigmas is meters5.sigmas


def test_shared_model_is_one_per_matrix_and_weights(net5, meters5, z5):
    H, w = build_h_matrix(net5, meters5), WeightModel(meters5.sigmas)
    model = WlsModel.of(H, w)
    assert WlsModel.of(H, w) is model
    wls_estimate(H, z5, w)
    assert "factor" in vars(model)  # wls_estimate went through it

    # weights equal in value but another object replace the one slot
    other = WeightModel(meters5.sigmas)
    replaced = WlsModel.of(H, other)
    assert replaced is not model and WlsModel.of(H, other) is replaced
    assert WlsModel.of(H, w) is not model


def test_singular_gain_fails_the_estimate_stage_of_a_scenario(tmp_path):
    # every bus is observed, so H builds; the numerically singular gain fails
    # where the shared model is first factored
    branches = [(1, 2, 1e-8), (2, 3, 1e8), (3, 4, 0.1)]
    records = [{"from": f, "to": t, "x_pu": x} for f, t, x in branches]
    net = {"buses": [1, 2, 3, 4], "slack": 1, "branches": records}
    meters = {"meters": [{"branch": [f, t]} for f, t, _ in branches + branches[:1]]}
    (tmp_path / "net.json").write_text(json.dumps(net))
    (tmp_path / "meters.json").write_text(json.dumps(meters))
    scn = Scenario(
        name="ill-conditioned",
        network_path=tmp_path / "net.json",
        meters_path=tmp_path / "meters.json",
        measurements=SimulateSource(x_true=(0.01, 0.02, 0.03), seed=0),
        attack=GrossErrorSpec(meter=1, magnitude_pu=0.5),
    )
    with pytest.raises(SingularGainMatrix) as info:
        run_scenario(scn)
    assert info.value.stage == "estimate"
