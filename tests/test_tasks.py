import dataclasses
import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy import optimize

from noisyfed import (ConfigError, QuadraticTask, TaskError, derive_constants,
                      load_task, make_task, save_task, stochastic_gradient)
from noisyfed.cli import _verify_task
from noisyfed.tasks import minibatch_gradient_variance


def test_make_task_deterministic_in_seed():
    a = make_task(n_clients=3, dim=4, samples_per_client=6, seed=9)
    b = make_task(n_clients=3, dim=4, samples_per_client=6, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)


def test_single_client_optimum_is_ridge_solution():
    task = make_task(n_clients=1, dim=3, samples_per_client=8, ridge=0.2,
                     noise_std=1.0, seed=2)
    con = derive_constants(task, batch=8, trajectory_radius=5.0)
    assert np.allclose(con.opt, task.client_optima()[0], atol=1e-12)
    assert con.gamma_noniid == 0.0


def test_iid_limit_gamma_near_zero():
    # Zero heterogeneity and tiny observation noise: all clients are samples
    # of the same source, so the non-IID degree collapses.
    task = make_task(n_clients=8, dim=4, samples_per_client=30,
                     heterogeneity=0.0, ridge=0.1, noise_std=0.1, seed=4)
    con = derive_constants(task, batch=30, trajectory_radius=5.0)
    assert 0.0 <= con.gamma_noniid <= 0.01


def test_identical_clients_give_exactly_zero_gamma():
    base = make_task(n_clients=1, dim=3, samples_per_client=6, ridge=0.1,
                     seed=3)
    task = QuadraticTask(np.repeat(base.features, 3, axis=0),
                         np.repeat(base.targets, 3, axis=0), ridge=0.1)
    con = derive_constants(task, batch=6, trajectory_radius=5.0)
    assert con.gamma_noniid == 0.0


def test_two_client_optimum_matches_normal_equations():
    features = [np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                np.array([[2.0, 0.0], [0.0, 1.0], [1.0, -1.0]])]
    targets = [np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])]
    ridge = 0.3
    task = QuadraticTask(features, targets, ridge)
    # Independent dense solve of the stacked normal equations.
    h = sum(f.T @ f / 3.0 for f in features) / 2.0 + ridge * np.eye(2)
    b = sum(f.T @ t / 3.0 for f, t in zip(features, targets)) / 2.0
    oracle = np.linalg.inv(h) @ b
    assert np.allclose(task.optimum, oracle, atol=1e-12)


def test_rank_deficient_without_ridge_rejected():
    features = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(TaskError):
        QuadraticTask([features], [np.ones(3)], ridge=0.0)


def test_full_batch_has_zero_sgd_variance(small_task):
    con = derive_constants(small_task, batch=small_task.samples_per_client,
                           trajectory_radius=5.0)
    assert all(v == 0.0 for v in con.sgd_var)


def test_gamma_matches_independent_minimizer(small_task):
    con = derive_constants(small_task, batch=3, trajectory_radius=5.0)
    n = small_task.n_clients

    def global_loss(w):
        return small_task.global_loss(w)

    res = optimize.minimize(global_loss, np.zeros(small_task.dim),
                            method="BFGS", tol=1e-12)
    client_minima = []
    for k in range(n):
        rk = optimize.minimize(lambda w, kk=k: small_task.client_losses(w)[kk],
                               np.zeros(small_task.dim), method="BFGS",
                               tol=1e-12)
        client_minima.append(rk.fun)
    oracle = res.fun - np.mean(client_minima)
    assert con.gamma_noniid == pytest.approx(oracle, abs=1e-6)


def test_gradient_at_optimum_vanishes(small_task, small_constants):
    grad = small_task.global_gradient(small_constants.opt)
    assert np.linalg.norm(grad) <= 1e-8


def test_strong_convexity_smoothness_sandwich(small_task, small_constants, rng):
    c = small_constants
    f_star = c.opt_value
    for _ in range(50):
        w = c.opt + rng.normal(scale=2.0, size=small_task.dim)
        gap = small_task.global_loss(w) - f_star
        dist = float(np.sum((w - c.opt) ** 2))
        assert gap >= 0.5 * c.mu * dist - 1e-9
        assert gap <= 0.5 * c.lipschitz * dist + 1e-9


def test_gamma_nonnegative_across_seeds():
    for seed in range(8):
        task = make_task(n_clients=4, dim=3, samples_per_client=8,
                         heterogeneity=2.0, noise_std=3.0, seed=seed)
        con = derive_constants(task, batch=4, trajectory_radius=5.0)
        assert con.gamma_noniid >= 0.0


def test_full_batch_gradient_is_exact(small_task, rng):
    w = rng.normal(size=small_task.dim)
    g = stochastic_gradient(small_task, 0, w, small_task.samples_per_client,
                            rng)
    assert np.allclose(g, small_task.client_gradients(w)[0], atol=1e-12)


def test_full_batch_gradient_zero_at_client_optimum(small_task, rng):
    w = small_task.client_optima()[2]
    g = stochastic_gradient(small_task, 2, w, small_task.samples_per_client,
                            rng)
    assert np.linalg.norm(g) <= 1e-10


def test_batch_mean_over_all_batches_is_exact_gradient(rng):
    # Five samples, batch of two: enumerate all C(5,2) batches exactly.
    task = make_task(n_clients=1, dim=3, samples_per_client=5, ridge=0.1,
                     noise_std=2.0, seed=8)
    w = rng.normal(size=3)
    grads = [task.sample_gradient(0, w, list(idx))
             for idx in combinations(range(5), 2)]
    assert np.allclose(np.mean(grads, axis=0), task.client_gradients(w)[0],
                       atol=1e-12)


def test_minibatch_variance_matches_enumeration(rng):
    task = make_task(n_clients=1, dim=3, samples_per_client=5, ridge=0.1,
                     noise_std=2.0, seed=8)
    w = rng.normal(size=3)
    exact = task.client_gradients(w)[0]
    sq_devs = [float(np.sum((task.sample_gradient(0, w, list(idx)) - exact) ** 2))
               for idx in combinations(range(5), 2)]
    oracle = float(np.mean(sq_devs))
    formula = minibatch_gradient_variance(task, w, 2)[0]
    assert formula == pytest.approx(oracle, rel=1e-10)


def test_stochastic_gradient_unbiased(small_task, small_constants, rng):
    k, batch, draws = 1, 3, 20_000
    w = small_constants.opt + rng.normal(size=small_task.dim)
    exact = small_task.client_gradients(w)[k]
    samples = np.array([stochastic_gradient(small_task, k, w, batch, rng)
                        for _ in range(draws)])
    se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(samples.mean(axis=0) - exact) <= 4.0 * se)


def test_empirical_variance_at_optimum_below_derived(small_task,
                                                     small_constants, rng):
    k, batch, draws = 0, 3, 20_000
    w = small_constants.opt
    exact = small_task.client_gradients(w)[k]
    sq = np.empty(draws)
    for i in range(draws):
        g = stochastic_gradient(small_task, k, w, batch, rng)
        sq[i] = float(np.sum((g - exact) ** 2))
    assert sq.mean() <= small_constants.sgd_var[k] * 1.05


def test_grad_bound_dominates_stochastic_gradients(small_task,
                                                   small_constants, rng):
    c = small_constants
    for _ in range(200):
        direction = rng.normal(size=small_task.dim)
        direction /= np.linalg.norm(direction)
        w = c.opt + rng.uniform(0, c.trajectory_radius) * direction
        k = int(rng.integers(small_task.n_clients))
        g = stochastic_gradient(small_task, k, w, 3, rng)
        assert float(g @ g) <= c.grad_bound


def test_batch_larger_than_data_rejected(small_task, rng):
    with pytest.raises(ConfigError):
        stochastic_gradient(small_task, 0, np.zeros(small_task.dim),
                            small_task.samples_per_client + 1, rng)


def test_unequal_client_sizes_rejected():
    # Stacked arrays hold equal sizes; targets of another size are rejected
    # (a ragged task file: tests/test_cli.py).
    with pytest.raises(TaskError):
        QuadraticTask(np.ones((2, 2, 2)), np.zeros((2, 1)), ridge=0.1)


@pytest.mark.parametrize("key", ["heterogeneity", "noise_std"])
@pytest.mark.parametrize("scale", [1.0, 1e9, 1e150])
def test_optimum_check_is_relative_to_the_gradient_scale(key, scale):
    # The solve is accurate to about 1e-16 relative at every scale; an
    # absolute tolerance rejected the exact optimum from about 1e9 on.
    task = make_task(n_clients=6, dim=6, samples_per_client=12, ridge=0.1,
                     seed=5, **{key: scale})
    w_star = task.optimum
    radius = 2.0 * max(float(np.linalg.norm(w_star)), 1.0)
    assert np.array_equal(derive_constants(task, 3, radius).opt, w_star)
    # Negative control: an optimum off by 1e-6 relative fails the check.
    task.optimum = w_star * (1.0 + 1e-6)
    with pytest.raises(TaskError, match="residual gradient"):
        derive_constants(task, 3, radius)


def test_save_load_round_trip(tmp_path, small_task):
    path = tmp_path / "task.json"
    save_task(small_task, path)
    loaded = load_task(path)
    assert loaded.ridge == small_task.ridge
    assert loaded.dim == small_task.dim
    assert np.array_equal(loaded.features, small_task.features)
    assert np.array_equal(loaded.targets, small_task.targets)


# SHA-256 of each task's make_task arrays and of every derive_constants field,
# captured before the task build and the constants were stacked over clients.
# The verify task is also the tests' small task.
TASK_FULL = dict(n_clients=10, dim=20, samples_per_client=40,
                 heterogeneity=1.0, ridge=0.05, noise_std=32.0, seed=7)
# name -> (task, batch, trajectory radius of its constants)
PINNED_TASKS = {
    "verify": (_verify_task, 3, 8.0),
    "full": (lambda: make_task(**TASK_FULL), 4, 16.0),
    "partial": (lambda: make_task(**dict(TASK_FULL, n_clients=50, seed=11)),
                4, 16.0),
}
GOLDEN_TASK_ARRAYS = {
    "verify":
        "f9e1119c4bfabb20d34dd0ad0b0d7fc896d01d1412e083ba2aa12c21cebceedf",
    "full":
        "73581a150b3b149fdb5918cc3fabe40a168108a8b8409b44d457c905b923d86d",
    "partial":
        "c065af408724ce499863b6d9fc4ff43af48a495832a055899a97f04745690042",
}
GOLDEN_TASK_CONSTANTS = {
    "verify":
        "f6e2142b47929a8cf65b425a4a58431e9a55a675c40ff8da0aca3b3a7085cc07",
    "full":
        "d7d5e1b14d198bdd56fbd542575d363b26b8ddbe2a339e9583497d51b87d9692",
    "partial":
        "687d73b82e271021ea12f7ef60ca11fe4e1cfb69d8639bfd0920169fd527790a",
}


def _arrays_digest(task):
    digest = hashlib.sha256()
    for array in (task.features, task.targets):
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _constants_digest(constants):
    digest = hashlib.sha256()
    for field in dataclasses.fields(constants):
        value = np.asarray(getattr(constants, field.name)).tolist()
        digest.update(f"{field.name}={value!r};".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_TASKS))
def test_task_arrays_and_constants_match_golden(name):
    build, batch, radius = PINNED_TASKS[name]
    task = build()
    assert _arrays_digest(task) == GOLDEN_TASK_ARRAYS[name]
    assert _constants_digest(derive_constants(task, batch, radius)) \
        == GOLDEN_TASK_CONSTANTS[name]


def _row_losses(task, ws):
    """The global loss at each row w of ``ws`` from the rows, as the mean of
    every client's squared residuals over 2 plus ``ridge ||w||^2 / 2``."""
    a, y = task.features.reshape(-1, task.dim), task.targets.ravel()
    return np.array([0.5 * np.mean((a @ w - y) ** 2) + 0.5 * task.ridge * w @ w
                     for w in ws])


@pytest.mark.parametrize("overrides", [
    {}, {"noise_std": 1.0, "heterogeneity": 16.0}, {"noise_std": 0.0}],
    ids=["full", "heterogeneous", "noise_free"])
def test_global_losses_match_the_rows(overrides):
    task = make_task(**dict(TASK_FULL, **overrides))
    rng = np.random.default_rng(4)
    # At the optimum, near it, at the zero start and far from both.
    ws = np.vstack([task.optimum, np.zeros(task.dim)] + [
        task.optimum + scale * rng.normal(size=(8, task.dim))
        for scale in (1e-6, 1e-2, 1.0, 10.0)])
    np.testing.assert_allclose(task.global_losses(ws), _row_losses(task, ws),
                               rtol=1e-12, atol=0.0)


def test_global_losses_allocate_no_block_of_residuals():
    # The rows' form built a (32, N*D) residual and a temporary as large:
    # 6.5 MB here.  The moments' form needs a few (32, d) arrays.
    task = make_task(n_clients=100, dim=20, samples_per_client=128, seed=3)
    ws = np.random.default_rng(0).normal(size=(32, task.dim))
    residuals = ws.shape[0] * task.n_clients * task.samples_per_client * 8
    tracemalloc.start()
    try:
        task.global_losses(ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < residuals / 16


def test_small_task_is_the_verify_task(small_task):
    assert _arrays_digest(small_task) == GOLDEN_TASK_ARRAYS["verify"]


class _RotFirst:
    """A generator that gives the first client its ``rot`` normals before
    its ``gauss`` block, and every other draw as drawn."""

    def __init__(self, rng, samples, dim):
        self.rng, self.samples, self.dim = rng, samples, dim
        self.held = None

    def normal(self, *args, size=None, **kwargs):
        if size == (self.samples, self.dim) and self.held is None:
            self.held = self.rng.normal(size=(self.dim, self.dim))
            return self.rng.normal(size=size)
        if size == (self.dim, self.dim) and self.held is not False:
            held, self.held = self.held, False
            return held
        return self.rng.normal(*args, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_rot_drawn_before_gauss_fails_task_golden(monkeypatch):
    # Negative control: one client's draws taken in another order.
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RotFirst(
        default_rng(seed), TASK_FULL["samples_per_client"], TASK_FULL["dim"]))
    assert _arrays_digest(make_task(**TASK_FULL)) != GOLDEN_TASK_ARRAYS["full"]
