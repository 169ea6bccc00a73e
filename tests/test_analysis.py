import tracemalloc

import numpy as np
import pytest

from noisyfed import (BoundSpec, ConfigError, LearningRateSchedule,
                      StatisticalPowerError, analysis, bound_formula,
                      convergence_bound, fit_rate, induction_constant,
                      rate_constant, recursion_envelope)
from noisyfed.analysis import (aggregation_noise_oracle,
                               client_sampling_oracle,
                               differential_upload_oracle, sampling_deficiency,
                               sgd_one_step_oracle)
from noisyfed.tasks import TaskConstants, minibatch_gradient_variance


def constants_stub(mu=1.0, lipschitz=4.0, gamma_noniid=0.5, sgd_var=(1.0,) * 10,
                   grad_bound=9.0, dim=20):
    return TaskConstants(mu=mu, lipschitz=lipschitz, kappa=lipschitz / mu,
                         gamma_noniid=gamma_noniid, sgd_var=tuple(sgd_var),
                         grad_bound=grad_bound, opt=np.zeros(dim),
                         opt_value=0.0, trajectory_radius=1.0)


def test_rate_constant_partial_hand_value():
    # delta_k^2 = 1 for 10 clients, L=4, Gamma=0.5, E=2, H^2=9, K=5, d=20:
    # 0.1 + 12 + 72 + (5/9)(4/5)(4)(9) + 40 = 140.1
    spec = BoundSpec(variant="mt_partial", constants=constants_stub(),
                     local_epochs=2, n_clients=10, n_participants=5, dim=20,
                     initial_gap=4.0)
    assert rate_constant(spec) == pytest.approx(140.1, rel=1e-12)


def test_rate_constant_term_cancellation_full_single_epoch():
    spec = BoundSpec(variant="mt_partial", constants=constants_stub(),
                     local_epochs=1, n_clients=10, n_participants=10, dim=20,
                     initial_gap=4.0)
    # E=1 and K=N: drift and sampling terms vanish.
    expected = 0.1 + 6 * 4.0 * 0.5 + 2 * 20
    assert rate_constant(spec) == pytest.approx(expected, rel=1e-12)


def test_rate_constant_mdt_high_snr_limit():
    base = dict(constants=constants_stub(), local_epochs=2, n_clients=10,
                n_participants=5, dim=20, initial_gap=4.0)
    partial = rate_constant(BoundSpec(variant="mt_partial", **base))
    mdt = rate_constant(BoundSpec(variant="mdt_constant_snr",
                                  snr_target=1e12, **base))
    # The differential-upload constant approaches the partial one minus d.
    assert mdt == pytest.approx(partial - 20.0, rel=1e-9)


def test_rate_constant_monotone_in_participants_and_snr():
    base = dict(constants=constants_stub(), local_epochs=3, n_clients=10,
                dim=20, initial_gap=4.0)
    partial = [rate_constant(BoundSpec(variant="mt_partial",
                                       n_participants=k, **base))
               for k in (2, 5, 10)]
    assert partial[0] > partial[1] > partial[2]
    mdt = [rate_constant(BoundSpec(variant="mdt_constant_snr",
                                   n_participants=5, snr_target=nu, **base))
           for nu in (1.0, 10.0, 100.0)]
    assert mdt[0] > mdt[1] > mdt[2]


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
    spec = BoundSpec(variant="mt_full", constants=constants_stub(),
                     local_epochs=2, n_clients=10, n_participants=10, dim=20,
                     initial_gap=4.0)
    values = [convergence_bound(t, spec) for t in range(0, 4000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[2000] / values[3993] == pytest.approx(2.0, rel=0.01)


def test_induction_constant_dominates_recursion():
    for gap in (0.1, 4.0, 50.0):
        spec = BoundSpec(variant="mt_full", constants=constants_stub(),
                         local_epochs=2, n_clients=10, n_participants=10,
                         dim=20, initial_gap=gap)
        v = induction_constant(spec)
        lr = spec.lr
        deltas = recursion_envelope(spec, 3000)
        for t, delta in enumerate(deltas):
            assert delta <= v / (lr.gamma + t) + 1e-9


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


def test_bound_spec_validation():
    with pytest.raises(ConfigError):
        BoundSpec(variant="mdt_constant_snr", constants=constants_stub(),
                  local_epochs=1, n_clients=4, n_participants=2, dim=3,
                  initial_gap=1.0)  # missing snr_target
    with pytest.raises(ConfigError):
        BoundSpec(variant="warp", constants=constants_stub(), local_epochs=1,
                  n_clients=4, n_participants=2, dim=3, initial_gap=1.0)
