import numpy as np
import pytest

from conftest import TABLE_J, TABLE_XHAT
from fdilab.errors import DimensionMismatch, SingularGainMatrix, ValidationError
from fdilab.estimation import (
    WeightModel,
    WlsModel,
    residual_norm,
    simulate_measurements,
    wls_estimate,
)


def test_noise_free_data_is_fixed_point(h5, w5):
    rng = np.random.default_rng(42)
    for _ in range(20):
        x_true = rng.normal(scale=0.05, size=4)
        res = wls_estimate(h5, h5.values @ x_true, w5)
        np.testing.assert_allclose(res.state, x_true, atol=1e-12)
        assert res.objective < 1e-10


def test_table_measurements_regression(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)
    np.testing.assert_allclose(res.state, TABLE_XHAT, rtol=1e-9)
    assert res.objective == pytest.approx(TABLE_J, rel=1e-9)
    np.testing.assert_allclose(res.residual, z5 - res.fitted, atol=1e-15)


def test_square_invertible_system():
    res = wls_estimate(np.array([[-1.0]]), [0.5], [1.0])
    assert res.state[0] == pytest.approx(-0.5, abs=1e-14)
    assert abs(res.residual[0]) < 1e-14


def test_orthogonality_of_residual(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)
    grad = h5.values.T @ (res.residual / w5.sigmas**2)
    assert np.max(np.abs(grad)) < 1e-8, f"H' R^-1 r = {grad}"


def test_reestimation_idempotent(h5, z5, w5):
    first = wls_estimate(h5, z5, w5)
    second = wls_estimate(h5, first.fitted, w5)
    np.testing.assert_allclose(second.state, first.state, atol=1e-10)


def test_sigma_rescaling_leaves_state_unchanged(h5, z5):
    base = wls_estimate(h5, z5, WeightModel(np.full(6, 0.01)))
    scaled = wls_estimate(h5, z5, WeightModel(np.full(6, 0.07)))
    np.testing.assert_allclose(scaled.state, base.state, atol=1e-10)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wls_estimate(np.eye(3), [1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        wls_estimate(np.eye(3), [1.0, 2.0, 3.0], [1.0, 1.0])


def test_singular_gain_matrix():
    H = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank 1
    with pytest.raises(SingularGainMatrix):
        wls_estimate(H, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])


def test_weight_model_validation():
    with pytest.raises(ValidationError):
        WeightModel(np.array([0.01, 0.0]))
    with pytest.raises(ValidationError):
        WeightModel(np.array([0.01, -0.01]))


def test_simulate_noiseless_limit(h5):
    x = np.array([0.01, -0.02, 0.03, 0.0])
    z = simulate_measurements(h5, x, np.zeros(6), seed=123)
    np.testing.assert_allclose(z, h5.values @ x, atol=0.0)


def test_simulate_deterministic_per_seed(h5, w5):
    x = np.zeros(4)
    z1 = simulate_measurements(h5, x, w5, seed=2024)
    z2 = simulate_measurements(h5, x, w5, seed=2024)
    z3 = simulate_measurements(h5, x, w5, seed=2025)
    np.testing.assert_array_equal(z1, z2)
    assert not np.array_equal(z1, z3)


def test_simulate_noise_scale():
    # 10k draws from one meter: sample std within 5% of sigma
    H = np.array([[-1.0]])
    draws = np.array(
        [simulate_measurements(H, [0.0], [0.01], seed=s)[0] for s in range(10_000)]
    )
    assert np.std(draws) == pytest.approx(0.01, rel=0.05)


def test_residual_norm_values(h5, z5, w5):
    res = wls_estimate(h5, z5, w5)
    assert residual_norm(res) == pytest.approx(np.sqrt(TABLE_J), rel=1e-9)

    clean = wls_estimate(h5, h5.values @ np.zeros(4), w5)
    assert residual_norm(clean) < 1e-12


def test_residual_norm_pythagorean():
    # weighted residual (3, 4) with sigma = 1 has norm 5
    from fdilab.estimation import EstimationResult

    res = EstimationResult(
        state=np.zeros(1),
        fitted=np.zeros(2),
        residual=np.array([3.0, 4.0]),
        objective=25.0,
        sigmas=np.ones(2),
    )
    assert residual_norm(res) == pytest.approx(5.0, abs=1e-12)


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
    Z = h5.values @ rng.normal(scale=0.02, size=(4, 25)) + rng.normal(scale=0.01, size=(6, 25))
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
