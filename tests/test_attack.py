import re
from itertools import combinations

import numpy as np
import pytest

from conftest import dense
from fdilab.attack import (
    AttackVector,
    attack_from_c,
    random_constrained_attack,
    targeted_attack,
    verify_stealth,
)
from fdilab.detection import residual_covariance
from fdilab.errors import DimensionMismatch, InfeasibleSupport, ValidationError
from fdilab.estimation import wls_estimate
from fdilab.network import Branch, Meter, MeterConfig, NetworkModel, build_h_matrix


# -- direct construction ----------------------------------------------------------

def test_attack_from_zero_shift(h5):
    atk = attack_from_c(h5, np.zeros(4))
    assert atk.support == ()
    np.testing.assert_array_equal(atk.a, np.zeros(6))


def test_attack_from_unit_theta2_shift(h5):
    atk = attack_from_c(h5, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(atk.a, [-1 / 0.03, 0.0, 20.0, 12.5, 0.0, 0.0], rtol=1e-12)
    assert atk.support == (0, 2, 3)


def test_attack_from_c_dimension_check(h5):
    with pytest.raises(DimensionMismatch):
        attack_from_c(h5, [1.0, 2.0])


# -- random constrained attacks ----------------------------------------------------

def test_every_size3_support_is_feasible(h5):
    for support in combinations(range(6), 3):
        atk = random_constrained_attack(h5, support, seed=5, magnitude=0.1)
        assert set(atk.support) <= set(support), f"support leak for {support}"
        norm = np.linalg.norm(atk.a)
        assert norm == pytest.approx(0.1, rel=1e-9)
        assert np.linalg.norm(atk.a - dense(h5) @ atk.c) <= 1e-10 * norm


def test_all_meters_controlled_always_feasible(h5):
    atk = random_constrained_attack(h5, range(6), seed=9, magnitude=0.25)
    assert np.linalg.norm(atk.a) == pytest.approx(0.25, rel=1e-9)
    assert any(abs(v) > 0 for v in atk.c)


@pytest.mark.parametrize("meter", range(6))
def test_single_meter_support_infeasible(h5, meter):
    with pytest.raises(InfeasibleSupport):
        random_constrained_attack(h5, [meter], seed=1)


def test_random_attack_deterministic_per_seed(h5):
    a1 = random_constrained_attack(h5, [0, 2, 3], seed=77).a
    a2 = random_constrained_attack(h5, [0, 2, 3], seed=77).a
    np.testing.assert_array_equal(a1, a2)


def test_random_attack_argument_checks(h5):
    with pytest.raises(ValidationError):
        random_constrained_attack(h5, [], seed=0)
    with pytest.raises(DimensionMismatch):
        random_constrained_attack(h5, [0, 99], seed=0)
    with pytest.raises(ValidationError):
        random_constrained_attack(h5, [0, 1, 2], seed=0, magnitude=0.0)


@pytest.mark.parametrize("controlled, index", [
    ([0.5, 2.9, 3], "0.5"), ([0, 2, 3.0], "3.0"), (np.array([0.0, 2.0, 3.0]), "0.0"), ([0, "2", 3], "2"),
])
def test_random_attack_refuses_a_meter_index_that_is_not_an_integer(h5, controlled, index):
    with pytest.raises(ValidationError, match=rf"^controlled meter index {re.escape(index)} is not an integer$"):
        random_constrained_attack(h5, controlled, seed=1)


def test_attacks_take_numpy_integer_indices(h5):
    foothold = np.array([0, 2, 3])
    np.testing.assert_array_equal(random_constrained_attack(h5, foothold, seed=1).a,
                                  random_constrained_attack(h5, [0, 2, 3], seed=1).a)
    np.testing.assert_array_equal(targeted_attack(h5, {np.int64(1): 0.1}).c, targeted_attack(h5, {1: 0.1}).c)


@pytest.mark.parametrize("index", [1.7, 1.0, np.float64(2.0), "1"])
def test_targeted_attack_refuses_a_state_index_that_is_not_an_integer(h5, index):
    with pytest.raises(ValidationError, match=rf"^pinned state index {re.escape(str(index))} is not an integer$"):
        targeted_attack(h5, {index: 0.1})


def test_null_space_is_exact_whatever_the_reactances():
    # 1/x spans 16 orders of magnitude, so an SVD with a relative rank
    # tolerance sees a null space for foothold [2] that is not there
    net = NetworkModel(
        buses=(1, 2, 3),
        branches=(Branch(1, 2, 1e-8), Branch(2, 3, 1e8), Branch(1, 3, 0.1)),
        slack=1,
    )
    H = build_h_matrix(net, MeterConfig(tuple(Meter(branch=b) for b in range(3))))
    with pytest.raises(InfeasibleSupport, match=re.escape("no nonzero state shift keeps meters [0, 1] untouched")):
        random_constrained_attack(H, [2], seed=0)
    for foothold in ([0, 2], [1, 2]):
        atk = random_constrained_attack(H, foothold, seed=0)
        assert set(atk.support) <= set(foothold)
        assert np.linalg.norm(atk.a) == pytest.approx(0.1, rel=1e-12)


def test_degenerate_draw_is_decided_by_one_draw():
    # both meters read a branch of reactance 1e300, so |a| = |c| / 1e300 is
    # below the degeneracy floor for every draw of c
    net = NetworkModel(buses=(1, 2), branches=(Branch(1, 2, 1e300),), slack=1)
    H = build_h_matrix(net, MeterConfig((Meter(branch=0), Meter(branch=0, orientation=-1))))
    rng = np.random.default_rng(3)
    with pytest.raises(InfeasibleSupport, match="^random draws produced only degenerate attacks$"):
        random_constrained_attack(H, [0, 1], seed=rng)
    replay = np.random.default_rng(3)
    replay.standard_normal(1)
    assert rng.standard_normal() == replay.standard_normal()


@pytest.mark.parametrize("magnitude", [float("inf"), float("nan")])
def test_random_attack_magnitude_must_be_finite(h5, magnitude):
    with pytest.raises(ValidationError, match="^attack magnitude (inf|nan) must be finite and > 0$"):
        random_constrained_attack(h5, [0, 2, 3], seed=0, magnitude=magnitude)


def test_random_attack_whose_scale_overflows_is_rejected():
    # ||H c|| is about 1e-10, so scaling it to 1e308 overflows c
    net = NetworkModel(buses=(1, 2), branches=(Branch(1, 2, 1e10),), slack=1)
    H = build_h_matrix(net, MeterConfig((Meter(branch=0),)))
    with pytest.raises(ValidationError, match="^state shift c and attack a = Hc must be finite$"):
        random_constrained_attack(H, [0], seed=0, magnitude=1e308)


def test_non_finite_state_shift_is_rejected(h5):
    with pytest.raises(ValidationError, match="^state shift c and attack a = Hc must be finite$"):
        attack_from_c(h5, [np.nan, 0.0, 0.0, 0.0])


# -- targeted attacks ---------------------------------------------------------------

def test_targeted_fully_pinned(h5):
    c = np.array([0.01, -0.02, 0.005, 0.0])
    atk = targeted_attack(h5, dict(enumerate(c)))
    np.testing.assert_array_equal(atk.c, c)
    np.testing.assert_allclose(atk.a, dense(h5) @ c, atol=1e-12)


def test_targeted_partial_pin_zero_fills(h5):
    atk = targeted_attack(h5, {2: 0.05})  # state index 2 is the bus-4 angle
    assert atk.c[2] == pytest.approx(0.05, abs=1e-12)
    assert atk.c[0] == atk.c[1] == atk.c[3] == 0.0


def test_targeted_moves_chosen_flow(h5):
    # raise the perceived flow on the x = 0.05 branch between buses 3 and 4
    # (meter 4) by exactly delta: pin the bus-3 shift to delta * x
    delta = 0.6
    atk = targeted_attack(h5, {h5.state_index(3): delta * 0.05})
    assert atk.a[4] == pytest.approx(delta, rel=1e-12)
    assert atk.support == (1, 4)


def test_targeted_validation(h5):
    with pytest.raises(ValidationError):
        targeted_attack(h5, {})
    with pytest.raises(DimensionMismatch):
        targeted_attack(h5, {9: 0.1})


# -- stealth guarantee ---------------------------------------------------------------

def test_stealth_zero_attack(h5, z5, w5):
    atk = attack_from_c(h5, np.zeros(4))
    assert verify_stealth(z5, atk, h5, w5)


def test_stealth_sweep_small(h5, w5):
    rng = np.random.default_rng(314)
    for _ in range(100):
        x_true = rng.normal(scale=0.03, size=4)
        z = dense(h5) @ x_true + rng.normal(scale=0.01, size=6)
        c = rng.normal(scale=0.02, size=4)
        atk = attack_from_c(h5, c)
        assert verify_stealth(z, atk, h5, w5)
        # state shift is exactly c
        shift = wls_estimate(h5, z + atk.a, w5).state - wls_estimate(h5, z, w5).state
        np.testing.assert_allclose(shift, c, atol=1e-9)


def test_gross_error_is_not_stealthy(net5, meters5, z5, w5, factorisations, inversions):
    spike = np.zeros(6)
    spike[2] = 0.5  # 50 sigma
    atk = AttackVector(a=spike, c=np.zeros(4), support=(2,))
    H = build_h_matrix(net5, meters5)  # the memo holds no diag(Omega)
    assert not verify_stealth(z5, atk, H, w5)
    # the residual norm check fails first, so diag(Omega) is not formed
    assert factorisations == [(4, 4)]
    assert inversions == []


@pytest.mark.parametrize("confidence", [2.0, 0.0, float("nan")])
@pytest.mark.parametrize("stealthy", [True, False])
def test_stealth_check_rejects_a_confidence_outside_0_1_before_it_fits(h5, z5, w5, factorisations, confidence,
                                                                        stealthy):
    # a gross error fails the norm test, which must not answer for a confidence the detectors refuse
    spike = np.zeros(6)
    spike[2] = 0.5
    atk = attack_from_c(h5, [0.01, 0.0, 0.0, 0.0]) if stealthy else AttackVector(spike, np.zeros(4), (2,))
    with pytest.raises(ValidationError, match="^probability .* must lie strictly between 0 and 1$"):
        verify_stealth(z5, atk, h5, w5, confidence)
    assert factorisations == []


def test_stealth_checks_on_one_h_invert_its_gain_once(net5, meters5, z5, w5, factorisations, inversions):
    # each fit factors its own gain; the first check forms diag(Omega) in its fit's factor
    # buffer, and the other four read it from the memo, so H's shared model is never made
    H = build_h_matrix(net5, meters5)
    rng = np.random.default_rng(7)
    for _ in range(5):
        assert verify_stealth(z5, attack_from_c(H, rng.normal(scale=0.02, size=4)), H, w5)
    assert factorisations == [(4, 4)] * 5
    assert inversions == [(4, 4)]
    assert H._model is None


def test_stealth_check_on_a_fresh_h_of_a_seen_meter_set_runs_no_potri(net5, meters5, z5, w5, factorisations,
                                                                       inversions):
    # the second H reads diag(Omega) from the memo, so each check factors the gain once, for its fit
    c = np.random.default_rng(7).normal(scale=0.02, size=4)
    for _ in range(2):
        H = build_h_matrix(net5, meters5)
        assert verify_stealth(z5, attack_from_c(H, c), H, w5)
    assert inversions == [(4, 4)]
    assert factorisations == [(4, 4)] * 2
    assert H._model is None


def test_equal_residual_norms_with_different_lnr_verdicts_are_not_stealthy(h5, w5):
    # Both residuals have weighted norm sqrt(7), under the chi-square threshold
    # sqrt(9.21), so the norm check passes. Spread over meters 0 and 3, the clean
    # one has normalized residuals of at most 2.07; along meter 3's own residual
    # direction, the attacked one reads sqrt(7) there, over the LNR threshold 2.576.
    omega = residual_covariance(h5, w5)
    spread = omega[:, 0] / np.sqrt(omega[0, 0]) + omega[:, 3] / np.sqrt(omega[3, 3])
    clean, attacked = (np.sqrt(7) * 0.01 * r / np.linalg.norm(r) for r in (spread, omega[:, 3]))
    atk = AttackVector(a=attacked - clean, c=np.zeros(4), support=tuple(range(6)))
    assert not verify_stealth(clean, atk, h5, w5)


def test_stealth_check_needs_one_meter_count(h5, z5, w5):
    atk = attack_from_c(h5, np.zeros(4))
    with pytest.raises(DimensionMismatch, match="^z, attack and H disagree on meter count$"):
        verify_stealth(z5[:5], atk, h5, w5)


def test_stealth_check_whose_attacked_measurements_overflow_is_rejected(h5, w5):
    # z and a = Hc are finite, z + a overflows at meter 2 (20 * 5e305 + 1.79e308)
    atk = attack_from_c(h5, [5e305, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="^measurement values must all be finite$"):
        verify_stealth(np.full(6, 1.79e308), atk, h5, w5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_targeted_rejects_non_finite_pin(h5, bad):
    with pytest.raises(ValidationError, match="finite"):
        targeted_attack(h5, {2: bad})


def test_targeted_rejects_a_pin_whose_attack_overflows(h5):
    # c is finite, but the perceived flow on meter 4 is 1e308 / 0.05
    with pytest.raises(ValidationError, match="^state shift c and attack a = Hc must be finite$"):
        targeted_attack(h5, {h5.state_index(3): 1e308})
