import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyfed import (ConfigError, LearningRateSchedule, PolicyError,
                      budget_split, build_policy, diversity_orders,
                      downlink_power, equal_power_variance,
                      mdt_downlink_noise, mdt_uplink_variance, mt_full_noise,
                      mt_partial_noise, reference_diversity_schedule,
                      uplink_power)
from noisyfed.errors import ScheduleError
from noisyfed.policies import DIVERSITY_STAIRCASE_500


@pytest.fixture
def lr():
    # mu=1, kappa=1, E=5 gives gamma = 8: the reference configuration for all
    # hand-evaluated schedule values.
    return LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=5)


def test_eta_hand_value(lr):
    assert lr.eta(1) == pytest.approx(2.0 / 9.0, rel=1e-15)


@pytest.mark.parametrize("mu, kappa, epochs", [(1.0, 1.0, 5), (0.37, 3.3, 2),
                                                (2e-3, 41.7, 7)])
def test_eta_array_is_bit_identical_to_eta(mu, kappa, epochs):
    sched = LearningRateSchedule(mu=mu, kappa=kappa, local_epochs=epochs)
    assert sched.etas(5000).tolist() == [sched.eta(t) for t in range(1, 5001)]


def test_eta_decreases_to_zero(lr):
    values = [lr.eta(t) for t in range(1, 5000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_eta_two_step_domination(lr):
    e = lr.local_epochs
    for t in range(1, 10_001):
        assert lr.eta(t) <= 2.0 * lr.eta(t + e)


def test_eta_initial_step_small_enough():
    for kappa in (1.0, 2.5, 7.0):
        sched = LearningRateSchedule(mu=0.7, kappa=kappa, local_epochs=5)
        lipschitz = sched.mu * kappa
        assert sched.eta(1) <= 1.0 / (4.0 * lipschitz)


def test_full_upload_schedule_hand_values(lr):
    sigma2, zeta2 = mt_full_noise(1, 10, lr)
    assert sigma2 == pytest.approx(400.0 / 64.0, rel=1e-15)   # 6.25
    assert zeta2 == pytest.approx(400.0 / 63.0, rel=1e-15)    # ~6.3492


def test_full_upload_schedule_quadratic_decay(lr):
    s1, z1 = mt_full_noise(1000, 10, lr)
    s2, z2 = mt_full_noise(2000, 10, lr)
    assert s1 / s2 == pytest.approx(4.0, rel=0.02)
    assert z1 / z2 == pytest.approx(4.0, rel=0.02)


def test_partial_upload_schedule_hand_value(lr):
    sigma2, _ = mt_partial_noise(1, 10, 5, lr)
    assert sigma2 == pytest.approx(20.0 / 64.0, rel=1e-15)    # 0.3125


def test_schedule_scales_with_inverse_mu_squared():
    lr1 = LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=5)
    lr2 = LearningRateSchedule(mu=2.0, kappa=1.0, local_epochs=5)
    s1, z1 = mt_partial_noise(3, 10, 5, lr1)
    s2, z2 = mt_partial_noise(3, 10, 5, lr2)
    assert s2 == pytest.approx(s1 / 4.0, rel=1e-12)
    assert z2 == pytest.approx(z1 / 4.0, rel=1e-12)


def test_full_and_partial_totals_coincide_at_full_participation(lr):
    # Summing the per-client partial-mode schedule over all clients at K=N
    # reproduces the full-participation totals exactly.
    n = 10
    for t in (1, 7, 100):
        sigma2_full, zeta2_full = mt_full_noise(t, n, lr)
        sigma2_per, zeta2_per = mt_partial_noise(t, n, n, lr)
        assert n * sigma2_per == pytest.approx(sigma2_full, rel=1e-12)
        assert n * zeta2_per == pytest.approx(zeta2_full, rel=1e-12)


def test_mdt_downlink_hand_value(lr):
    zeta2 = mdt_downlink_noise(1, 10, 5, 10.0, lr)
    assert zeta2 == pytest.approx(4.0 / 24.12, rel=1e-6)      # ~0.16584


def test_mdt_downlink_high_snr_limit(lr):
    huge = mdt_downlink_noise(4, 10, 5, 1e12, lr)
    g, t = lr.gamma, 4
    limit = 4.0 / ((g + t) * (g + t - 2) / 10.0 + (g + t) ** 2 / 5.0)
    assert huge == pytest.approx(limit, rel=1e-9)


def test_mdt_uplink_plugin_variance():
    diff = np.array([3.0, 4.0])
    # ||d||^2 / (d * nu) with d=2, nu=10
    assert mdt_uplink_variance(diff, 10.0) == pytest.approx(25.0 / 20.0)


def test_uplink_power_hand_value(lr):
    assert uplink_power(1, 5, lr) == pytest.approx(64.0 / 20.0, rel=1e-15)


def test_uplink_power_inverts_noise_schedule(lr):
    for t in (1, 13, 250):
        sigma2, _ = mt_partial_noise(t, 10, 5, lr)
        assert uplink_power(t, 5, lr) * sigma2 == pytest.approx(1.0, rel=1e-12)


def test_uplink_power_quadratic_growth(lr):
    ts = np.array([100.0, 10_000.0])
    powers = [uplink_power(int(t), 5, lr) for t in ts]
    slope = (math.log(powers[1]) - math.log(powers[0])) \
        / (math.log(ts[1]) - math.log(ts[0]))
    assert abs(slope - 2.0) <= 0.05


def test_downlink_power_hand_value(lr):
    assert downlink_power(1, 10, lr, distance=1.0) \
        == pytest.approx(63.0 / 40.0, rel=1e-15)


def test_downlink_power_unit_distance_pathloss_free(lr):
    for alpha in (2.0, 3.7):
        assert downlink_power(5, 10, lr, distance=1.0, pathloss=alpha) \
            == downlink_power(5, 10, lr, distance=1.0, pathloss=2.0)


def test_downlink_power_inverts_noise_schedule(lr):
    # Received SNR distance**-alpha * rho equals the inverse of the scheduled
    # downlink noise power, for any distance.
    for t, r in ((1, 1.0), (9, 2.0), (40, 0.5)):
        rho = downlink_power(t, 10, lr, distance=r, pathloss=3.0)
        _, zeta2 = mt_partial_noise(t, 10, 4, lr)
        assert (r ** -3.0) * rho == pytest.approx(1.0 / zeta2, rel=1e-12)


def test_schedule_domain_guard():
    lr_bad = LearningRateSchedule(mu=1.0, kappa=1.0, local_epochs=5)
    with pytest.raises(ScheduleError):
        mt_full_noise(0, 10, lr_bad)


def test_budget_split_single_round():
    assert np.array_equal(budget_split(7.0, 1), [7.0])


def test_budget_split_hand_values():
    split = budget_split(1.0, 3)
    assert np.allclose(split, [1.0 / 14.0, 2.0 / 7.0, 9.0 / 14.0], atol=1e-15)
    assert split.sum() == pytest.approx(1.0, rel=1e-15)


@given(st.floats(min_value=0.1, max_value=1e6),
       st.integers(min_value=1, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_budget_split_conserves_total(total, rounds):
    split = budget_split(total, rounds)
    assert abs(split.sum() - total) <= 1e-12 * total
    assert np.all(np.diff(split) > 0) or rounds == 1


def test_diversity_orders_basics():
    assert diversity_orders(0.5, 1.0) == 1
    assert diversity_orders(3.2, 1.0) == 4
    # Exact multiples stay exact despite float division.
    for m in (1, 4, 9, 16, 25, 121):
        assert diversity_orders(m * 0.3, 0.3) == m


def test_diversity_orders_positive_inputs():
    with pytest.raises(PolicyError):
        diversity_orders(-1.0, 1.0)


def test_reference_staircase_intervals():
    assert reference_diversity_schedule(1) == 1
    assert reference_diversity_schedule(9) == 1
    assert reference_diversity_schedule(10) == 4
    assert reference_diversity_schedule(45) == 4
    assert reference_diversity_schedule(46) == 9
    assert reference_diversity_schedule(125) == 9
    assert reference_diversity_schedule(126) == 16
    assert reference_diversity_schedule(270) == 16
    assert reference_diversity_schedule(271) == 25
    assert reference_diversity_schedule(500) == 25
    with pytest.raises(ScheduleError):
        reference_diversity_schedule(0)


def test_staircase_reproduced_by_diversity_orders():
    # The five-stage reference schedule is exactly the ceiling rule applied to
    # its own stage powers at the reference per-shot power.
    for rho0 in (0.7, 1.0, 10.0):
        for t in range(1, 501):
            order = reference_diversity_schedule(t)
            assert diversity_orders(order * rho0, rho0) == order
    assert [o for _, o in DIVERSITY_STAIRCASE_500] == [1, 4, 9, 16, 25]


def test_equal_power_variances():
    assert equal_power_variance(10.0) == pytest.approx(0.1, rel=1e-12)
    assert equal_power_variance(0.0) == 1.0
    assert equal_power_variance(20.0) == pytest.approx(0.01, rel=1e-12)


def test_schedule_monotonicity(lr):
    sig = [mt_full_noise(t, 10, lr)[0] for t in range(1, 200)]
    zet = [mt_full_noise(t, 10, lr)[1] for t in range(1, 200)]
    pow_ul = [uplink_power(t, 5, lr) for t in range(1, 200)]
    assert all(a > b for a, b in zip(sig, sig[1:]))
    assert all(a > b for a, b in zip(zet, zet[1:]))
    assert all(a < b for a, b in zip(pow_ul, pow_ul[1:]))


def test_noise_tracks_sgd_floor_identity(lr):
    # The scheduled noise power one round ahead equals the squared learning
    # rate times N^2 (total form) or K (per-client form), exactly.
    n, k = 10, 5
    for t in range(1, 300):
        total_up, total_down = mt_full_noise(t + 1, n, lr)
        assert total_up == pytest.approx(n ** 2 * lr.eta(t) ** 2, rel=1e-12)
        per_up, per_down = mt_partial_noise(t + 1, n, k, lr)
        assert per_up == pytest.approx(k * lr.eta(t) ** 2, rel=1e-12)
        # Downlink at index t: eta_t^2 / (1 - eta_t mu), scaled by N^2 or N.
        damp = 1.0 - lr.eta(t) * lr.mu
        assert mt_full_noise(t, n, lr)[1] \
            == pytest.approx(n ** 2 * lr.eta(t) ** 2 / damp, rel=1e-12)
        assert mt_partial_noise(t, n, k, lr)[1] \
            == pytest.approx(n * lr.eta(t) ** 2 / damp, rel=1e-12)
        # Constant-SNR downlink: eta_t^2 N K / ((1 - eta_t mu) K + (1+1/nu) N).
        nu = 10.0
        expect = lr.eta(t) ** 2 * n * k / (damp * k + (1 + 1 / nu) * n)
        assert mdt_downlink_noise(t, n, k, nu, lr) \
            == pytest.approx(expect, rel=1e-12)


def test_diversity_energy_tracks_power_control(small_constants):
    policy = build_policy("diversity_t2", {"rho_uplink": 10.0,
                                           "rho_downlink": 10.0},
                          small_constants, 6, 3, 3)
    reference = build_policy("power_t2", {}, small_constants, 6, 3, 3)
    rounds = 300
    div_energy = sum(policy.round_params(t).energy_ul
                     for t in range(1, rounds + 1))
    ref_energy = sum(reference.round_params(t).energy_ul
                     for t in range(1, rounds + 1))
    assert ref_energy <= div_energy <= ref_energy + rounds * 10.0


def test_policy_round_params_and_excess(small_constants):
    n, k, epochs = 6, 3, 3
    for name, params in (("mt_full", {}), ("mt_partial", {}),
                         ("mdt_constant_snr", {"snr_target": 10.0}),
                         ("power_t2", {}),
                         ("diversity_t2", {"rho_uplink": 5.0,
                                           "rho_downlink": 5.0})):
        # mt_full schedules every client.
        sampled = n if name == "mt_full" else k
        policy = build_policy(name, params, small_constants, n, sampled,
                              epochs)
        assert max(policy.schedule_excess(t, policy.round_params(t))
                   for t in range(1, 100)) <= 1e-9
        louder = build_policy(name, dict(params, variance_scale=2.0),
                              small_constants, n, sampled, epochs)
        if name != "diversity_t2":
            assert max(louder.schedule_excess(t, louder.round_params(t))
                       for t in range(1, 100)) > 0.5


def test_weighted_full_policy_preserves_totals(small_constants):
    weights = [0.4, 0.3, 0.1, 0.1, 0.05, 0.05]
    policy = build_policy("mt_full", {"weights": weights}, small_constants,
                          6, 6, 3)
    lr = LearningRateSchedule.from_constants(small_constants, 3)
    rp = policy.round_params(4)
    total_up, total_down = mt_full_noise(4, 6, lr)
    assert float(np.sum(rp.uplink_variance)) == pytest.approx(total_up,
                                                              rel=1e-12)
    assert float(np.sum(rp.downlink_variance)) == pytest.approx(total_down,
                                                                rel=1e-12)
    assert rp.uplink_variance[0] > rp.uplink_variance[5]


def test_build_policy_rejects_unknown(small_constants):
    with pytest.raises(ConfigError):
        build_policy("warp_drive", {}, small_constants, 6, 3, 3)
    with pytest.raises(ConfigError):
        build_policy("equal_power", {"snr": 3}, small_constants, 6, 3, 3)
