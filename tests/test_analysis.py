import tracemalloc

import numpy as np
import pytest

from noisyfed import (ConfigError, LearningRateSchedule,
                      StatisticalPowerError, analysis, bound_formula,
                      build_policy, convergence_bound, fit_rate,
                      induction_constant, rate_constant, recursion_envelope)
from noisyfed.analysis import (aggregation_noise_oracle,
                               client_sampling_oracle,
                               default_slope_window,
                               differential_upload_oracle, sampling_deficiency,
                               sgd_one_step_oracle)
from noisyfed.tasks import TaskConstants, minibatch_gradient_variance


def constants_stub(mu=1.0, lipschitz=4.0, gamma_noniid=0.5, sgd_var=(1.0,) * 10,
                   grad_bound=9.0, dim=20, initial_gap=4.0):
    """Constants whose optimum is ``initial_gap`` away from the zero start,
    squared, along the first axis."""
    opt = np.zeros(dim)
    opt[0] = np.sqrt(initial_gap)
    return TaskConstants(mu=mu, lipschitz=lipschitz, kappa=lipschitz / mu,
                         gamma_noniid=gamma_noniid, sgd_var=tuple(sgd_var),
                         grad_bound=grad_bound, opt=opt,
                         opt_value=0.0, trajectory_radius=1.0)


def stub_policy(name, local_epochs, n_participants, n_clients=10, **params):
    """A preset built on :func:`constants_stub`'s curvature."""
    return build_policy(name, params, constants_stub(), n_clients,
                        n_participants, local_epochs)


def test_rate_constant_partial_hand_value():
    # delta_k^2 = 1 for 10 clients, L=4, Gamma=0.5, E=2, H^2=9, K=5, d=20:
    # 0.1 + 12 + 72 + (5/9)(4/5)(4)(9) + 40 = 140.1
    policy = stub_policy("mt_partial", local_epochs=2, n_participants=5)
    assert rate_constant(policy, constants_stub()) == \
        pytest.approx(140.1, rel=1e-12)


def test_rate_constant_term_cancellation_full_single_epoch():
    policy = stub_policy("mt_partial", local_epochs=1, n_participants=10)
    # E=1 and K=N: drift and sampling terms vanish.
    expected = 0.1 + 6 * 4.0 * 0.5 + 2 * 20
    assert rate_constant(policy, constants_stub()) == \
        pytest.approx(expected, rel=1e-12)


def test_rate_constant_mdt_high_snr_limit():
    partial = rate_constant(stub_policy("mt_partial", 2, 5), constants_stub())
    mdt = rate_constant(stub_policy("mdt_constant_snr", 2, 5,
                                    snr_target=1e12), constants_stub())
    # The differential-upload constant approaches the partial one minus d.
    assert mdt == pytest.approx(partial - 20.0, rel=1e-9)


def test_rate_constant_monotone_in_participants_and_snr():
    partial = [rate_constant(stub_policy("mt_partial", 3, k),
                             constants_stub()) for k in (2, 5, 10)]
    assert partial[0] > partial[1] > partial[2]
    mdt = [rate_constant(stub_policy("mdt_constant_snr", 3, 5, snr_target=nu),
                         constants_stub()) for nu in (1.0, 10.0, 100.0)]
    assert mdt[0] > mdt[1] > mdt[2]


def test_rate_constant_of_a_policy_without_bound_is_config_error():
    with pytest.raises(ConfigError,
                       match="'equal_power' has no convergence bound"):
        rate_constant(stub_policy("equal_power", 2, 5), constants_stub())


def test_sampling_deficiency_degenerate_cases():
    assert sampling_deficiency(10, 10) == 0.0
    assert sampling_deficiency(1, 1) == 0.0
    assert sampling_deficiency(10, 5) == pytest.approx(5.0 / 9.0)


def test_bound_formula_hand_value():
    # mu=1, gamma=8, D=140.1, kappa=4, E=2, gap=4 at t=92:
    # (4*140.1 + (8*4+2)*4) / 100 = 6.964
    value = bound_formula(92, mu=1.0, kappa=4.0, gamma=8.0, rate_const=140.1,
                          local_epochs=2, initial_gap=4.0)
    assert value == pytest.approx(6.964, rel=1e-12)


def test_convergence_bound_monotone_and_halving():
    policy = stub_policy("mt_full", local_epochs=2, n_participants=10)
    values = [convergence_bound(t, policy, constants_stub())
              for t in range(0, 4000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[2000] / values[3993] == pytest.approx(2.0, rel=0.01)


def test_induction_constant_dominates_recursion():
    policy = stub_policy("mt_full", local_epochs=2, n_participants=10)
    for gap in (0.1, 4.0, 50.0):
        constants = constants_stub(initial_gap=gap)
        v = induction_constant(policy, constants)
        deltas = recursion_envelope(policy, constants, 3000)
        for t, delta in enumerate(deltas):
            assert delta <= v / (policy.lr.gamma + t) + 1e-9


def test_default_slope_window_is_last_three_quarters():
    assert default_slope_window(200) == (50, 200)
    assert default_slope_window(12) == (3, 12)
    assert default_slope_window(3) == (1, 3)


def test_fit_rate_exact_power_law():
    t = np.arange(1, 200)
    fit = fit_rate(t, 3.0 / t, (10, 150))
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit.residual <= 1e-9


def test_fit_rate_constant_floor():
    t = np.arange(1, 200)
    fit = fit_rate(t, np.full(t.shape, 0.7), (10, 150))
    assert fit.slope == pytest.approx(0.0, abs=1e-6)


def test_fit_rate_excludes_nonpositive_points():
    t = np.arange(1, 40)
    y = 1.0 / t
    y[5] = 0.0
    fit = fit_rate(t, y, (1, 39))
    assert fit.excluded == 1
    assert fit.slope == pytest.approx(-1.0, abs=1e-3)


def test_fit_rate_needs_ten_points():
    t = np.arange(1, 9)
    with pytest.raises(ConfigError):
        fit_rate(t, 1.0 / t, (1, 8))


def test_aggregation_noise_oracle_reference_case(rng):
    report = aggregation_noise_oracle(n_clients=4, dim=3, variances=0.5,
                                      replicas=100_000, rng=rng)
    assert report.reference == pytest.approx(0.375)
    assert report.passed


def test_aggregation_noise_oracle_replica_floor(rng):
    with pytest.raises(StatisticalPowerError):
        aggregation_noise_oracle(n_clients=4, dim=3, variances=0.5,
                                 replicas=100, rng=rng)


def test_client_sampling_oracle_identical_models():
    models = np.tile(np.array([1.0, -2.0, 0.5]), (6, 1))
    report = client_sampling_oracle(models, n_participants=2, eta=0.1,
                                    local_epochs=2, grad_bound=4.0)
    assert report.passed
    assert report.estimate == 0.0


def test_client_sampling_oracle_rejects_too_many_subsets(rng):
    # C(25, 12) is far beyond the enumeration limit; C(15, 5) is within it.
    assert client_sampling_oracle(rng.normal(size=(15, 4)), n_participants=5,
                                  eta=1.0, local_epochs=5,
                                  grad_bound=1e4).detail == "exhaustive"
    with pytest.raises(ConfigError, match="5200300 client subsets exceed"):
        client_sampling_oracle(rng.normal(size=(25, 4)), n_participants=12,
                               eta=1.0, local_epochs=5, grad_bound=1e4)


def test_sgd_one_step_oracle_passes(small_task, small_constants, rng):
    lr = LearningRateSchedule.from_constants(small_constants, 3)
    state = np.stack([small_constants.opt + 0.3 * rng.normal(size=small_task.dim)
                      for _ in range(small_task.n_clients)])
    report = sgd_one_step_oracle(small_task, state, lr, iter_index=4, batch=3,
                                 replicas=10_000, rng=rng,
                                 constants=small_constants)
    assert report.passed


def _one_step_z(task, constants, seed):
    """z of the one-step oracle's estimate against the exact E||v - w*||^2:
    the squared bias of the mean step plus the without-replacement batch
    variances, eta^2 / N^2 * sum_k var_k."""
    rng = np.random.default_rng(seed)
    lr = LearningRateSchedule.from_constants(constants, 3)
    state = constants.opt + 0.3 * rng.normal(size=(task.n_clients, task.dim))
    eta, batch = lr.eta(4), 3
    report = sgd_one_step_oracle(task, state, lr, iter_index=4, batch=batch,
                                 replicas=100_000, rng=rng,
                                 constants=constants)
    grads = task.client_gradients(state)
    mean_step = (state - eta * grads).mean(axis=0) - constants.opt
    variance = minibatch_gradient_variance(task, state, batch).sum()
    exact = mean_step @ mean_step + eta ** 2 / task.n_clients ** 2 * variance
    return (report.estimate - exact) / (report.tolerance / 4.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sgd_one_step_oracle_matches_exact_moment(small_task, small_constants,
                                                  seed):
    assert abs(_one_step_z(small_task, small_constants, seed)) <= 4.0


def test_sgd_one_step_exact_moment_rejects_with_replacement_batches(
        small_task, small_constants, monkeypatch):
    # Batches drawn with replacement have (D - 1)/(D - B) times the
    # variance: 11/9 here, far beyond 4 standard errors at 10^5 replicas.
    monkeypatch.setattr(analysis, "floyd_sample",
                        lambda uniforms, population:
                        (uniforms * population).astype(np.intp))
    assert abs(_one_step_z(small_task, small_constants, 1)) > 4.0


def test_differential_upload_oracle_bound(small_task, small_constants, rng):
    report = differential_upload_oracle(
        small_task, w_prev=small_constants.opt + 0.5, n_participants=2,
        snr_target=10.0, downlink_variance=0.1, local_epochs=2, batch=3,
        replicas=10_000, rng=rng)
    assert report.passed
    assert report.estimate <= report.reference


def test_differential_upload_oracle_holds_few_replica_blocks(
        small_task, small_constants, rng):
    # The oracle keeps an (N, R, d) block each for the receptions (reused
    # for the differentials), the trained models and the uplink noise, plus
    # gathers of K of N rows; six blocks would mean temporaries of full size.
    replicas = 20_000
    block = small_task.n_clients * replicas * small_task.dim * 8
    tracemalloc.start()
    try:
        differential_upload_oracle(
            small_task, w_prev=small_constants.opt + 0.5, n_participants=2,
            snr_target=10.0, downlink_variance=0.1, local_epochs=1, batch=3,
            replicas=replicas, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * block
