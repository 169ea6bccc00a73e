"""Synthetic strongly convex learning tasks with analytically known optima.

Each client holds a ridge-regularized least-squares objective

    F_k(w) = 1/(2 D_k) * sum_i (a_i^T w - y_i)^2 + ridge/2 * ||w||^2,

so per-client Hessians, optima, and minima are all available in closed form.
The generator controls the per-client curvature spectrum exactly (features are
built from orthonormal columns), which keeps condition numbers small and
predictable, and shifts per-client target-generating optima apart to dial in
heterogeneity.

All datasets have equal size per client; the global objective is the plain
average of the per-client ones.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TaskError

_GRAD_TOL_AT_OPT = 1e-8


@dataclass(frozen=True)
class ClientData:
    """One client's fixed local dataset."""

    features: np.ndarray  # (size, dim)
    targets: np.ndarray   # (size,)

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        t = np.asarray(self.targets, dtype=np.float64)
        if f.ndim != 2 or t.ndim != 1 or f.shape[0] != t.shape[0]:
            raise TaskError("features must be (size, dim) with matching targets")
        if f.shape[0] < 1:
            raise TaskError("client dataset must contain at least one sample")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "targets", t)

    @property
    def size(self):
        return self.features.shape[0]


class QuadraticTask:
    """A federated least-squares problem over equally sized client datasets."""

    def __init__(self, clients, ridge, dim):
        clients = tuple(clients)
        if not clients:
            raise TaskError("task needs at least one client")
        if ridge < 0:
            raise TaskError("ridge must be non-negative")
        sizes = {c.size for c in clients}
        if len(sizes) != 1:
            raise TaskError("all clients must hold equally sized datasets")
        for c in clients:
            if c.features.shape[1] != dim:
                raise TaskError("client feature dimension does not match task")
        # Stacked for batched local training, (N, D, d) and (N, D); each
        # client's data is a view of them, so it is held once.
        self.features = np.stack([c.features for c in clients])
        self.targets = np.stack([c.targets for c in clients])
        self.clients = tuple(map(ClientData, self.features, self.targets))
        self.ridge = float(ridge)
        self.dim = int(dim)
        self._check_strong_convexity()

    def _check_strong_convexity(self):
        # With ridge == 0 a rank-deficient design breaks strong convexity.
        if self.ridge == 0.0:
            for k in range(self.n_clients):
                eigs = np.linalg.eigvalsh(self._data_hessian(k))
                if eigs[0] <= 1e-10:
                    raise TaskError(
                        f"client {k}: data Hessian is rank deficient and ridge is 0"
                    )

    @property
    def n_clients(self):
        return len(self.clients)

    @property
    def samples_per_client(self):
        return self.clients[0].size

    def _data_hessian(self, k):
        a = self.clients[k].features
        return (a.T @ a) / a.shape[0]

    def client_hessian(self, k):
        return self._data_hessian(k) + self.ridge * np.eye(self.dim)

    def global_hessian(self):
        h = sum(self._data_hessian(k) for k in range(self.n_clients))
        return h / self.n_clients + self.ridge * np.eye(self.dim)

    def client_gradient(self, k, w):
        c = self.clients[k]
        residual = c.features @ w - c.targets
        return c.features.T @ residual / c.size + self.ridge * w

    def client_loss(self, k, w):
        c = self.clients[k]
        residual = c.features @ w - c.targets
        return float(0.5 * residual @ residual / c.size
                     + 0.5 * self.ridge * (w @ w))

    def global_gradient(self, w):
        g = sum(self.client_gradient(k, w) for k in range(self.n_clients))
        return g / self.n_clients

    def global_loss(self, w):
        residual = self.features @ w - self.targets
        return float(0.5 * np.vdot(residual, residual) / residual.size
                     + 0.5 * self.ridge * (w @ w))

    def global_losses(self, ws):
        """:meth:`global_loss` at each row of ``ws``, by stacked products,
        so that a row's value does not depend on the others."""
        residual = np.matmul(self.features.reshape(-1, self.dim),
                             ws[:, :, None])[:, :, 0] - self.targets.ravel()
        squares = (residual[:, None] @ residual[:, :, None])[:, 0, 0]
        return 0.5 * squares / residual.shape[1] \
            + 0.5 * self.ridge * (ws[:, None] @ ws[:, :, None])[:, 0, 0]

    def _linear_term(self, k):
        c = self.clients[k]
        return c.features.T @ c.targets / c.size

    def client_optimum(self, k):
        return np.linalg.solve(self.client_hessian(k), self._linear_term(k))

    def global_optimum(self):
        b = sum(self._linear_term(k) for k in range(self.n_clients)) / self.n_clients
        return np.linalg.solve(self.global_hessian(), b)

    def sample_gradient(self, k, w, indices):
        """Gradient of F_k restricted to the given sample rows (plus ridge)."""
        c = self.clients[k]
        a = c.features[indices]
        residual = a @ w - c.targets[indices]
        return a.T @ residual / len(indices) + self.ridge * w


@dataclass(frozen=True)
class TaskConstants:
    """Curvature, heterogeneity, and noise constants derived from a task.

    ``sgd_var`` holds the exact per-client mini-batch gradient variance at the
    global optimum (without-replacement sampling).  ``grad_bound`` is a valid
    upper bound on the expected squared stochastic-gradient norm over the
    stated trajectory ball; it is conservative by construction.
    """

    mu: float
    lipschitz: float
    kappa: float
    gamma_noniid: float
    sgd_var: tuple
    grad_bound: float
    opt: np.ndarray
    opt_value: float
    trajectory_radius: float

    @property
    def sgd_var_mean_over_squared_clients(self):
        """sum_k sgd_var_k / N^2, the term entering the rate constant."""
        n = len(self.sgd_var)
        return float(sum(self.sgd_var)) / (n * n)


def make_task(n_clients, dim, samples_per_client, heterogeneity=1.0, ridge=0.1,
              noise_std=1.0, spectrum=(1.0, 1.1), seed=0):
    """Generate a reproducible federated least-squares task.

    Per client, features are drawn with orthonormal columns and an exact
    curvature spectrum sampled uniformly from ``spectrum``; targets come from a
    client-specific generating model ``base + heterogeneity * shift_k`` plus
    Gaussian observation noise of standard deviation ``noise_std``.
    """
    if n_clients < 1 or dim < 1 or samples_per_client < 1:
        raise ConfigError("n_clients, dim and samples_per_client must be >= 1")
    if samples_per_client < dim:
        raise ConfigError("need samples_per_client >= dim for orthonormal designs")
    if ridge < 0:
        raise ConfigError("ridge must be non-negative")
    lo, hi = spectrum
    if not (0 < lo <= hi):
        raise ConfigError("spectrum bounds must satisfy 0 < lo <= hi")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(101,)))
    base = rng.normal(size=dim)
    clients = []
    for _ in range(n_clients):
        gauss = rng.normal(size=(samples_per_client, dim))
        q, _ = np.linalg.qr(gauss)                       # orthonormal columns
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        spect = rng.uniform(lo, hi, size=dim)
        features = q @ np.diag(np.sqrt(samples_per_client * spect)) @ rot.T
        shift = rng.normal(size=dim) / np.sqrt(dim)
        w_gen = base + heterogeneity * shift
        targets = features @ w_gen + noise_std * rng.normal(size=samples_per_client)
        clients.append(ClientData(features=features, targets=targets))
    return QuadraticTask(clients=clients, ridge=ridge, dim=dim)


def minibatch_gradient_variance(task, k, w, batch):
    """Exact E||g_batch - grad F_k||^2 at w for without-replacement batches."""
    c = task.clients[k]
    size = c.size
    if not 1 <= batch <= size:
        raise ConfigError(f"batch must be in [1, {size}]")
    if batch == size:
        return 0.0
    grads = c.features * (c.features @ w - c.targets)[:, None] \
        + task.ridge * w[None, :]
    center = grads.mean(axis=0)
    pop_var = float(np.sum((grads - center) ** 2)) / size
    # Variance of a simple-random-sample mean, finite population of size D.
    return pop_var * (size - batch) / (batch * (size - 1))


def _gradient_norm_bound(task, w_star, radius):
    """sup over the radius-ball of the worst per-sample gradient norm, squared.

    A batch gradient is a mean of per-sample gradients, so this dominates
    E||grad F_k(w, batch)||^2 anywhere in the ball.
    """
    worst = 0.0
    for k in range(task.n_clients):
        c = task.clients[k]
        row_norms = np.linalg.norm(c.features, axis=1)
        residuals = np.abs(c.features @ w_star - c.targets)
        per_sample = row_norms * (residuals + radius * row_norms) \
            + task.ridge * (np.linalg.norm(w_star) + radius)
        worst = max(worst, float(per_sample.max()))
    return worst ** 2


def derive_constants(task, batch, trajectory_radius):
    """Compute the smoothness/convexity/heterogeneity constants of a task."""
    if trajectory_radius <= 0:
        raise ConfigError("trajectory_radius must be positive")
    if not 1 <= batch <= task.samples_per_client:
        raise ConfigError("batch exceeds the smallest client dataset")

    mins, maxes = [], []
    for k in range(task.n_clients):
        eigs = np.linalg.eigvalsh(task._data_hessian(k))
        if eigs[0] + task.ridge <= 0:
            raise TaskError(f"client {k}: Hessian not positive definite")
        mins.append(eigs[0])
        maxes.append(eigs[-1])
    mu = task.ridge + min(mins)
    lipschitz = task.ridge + max(maxes)

    w_star = task.global_optimum()
    grad_norm = float(np.linalg.norm(task.global_gradient(w_star)))
    if grad_norm > _GRAD_TOL_AT_OPT:
        raise TaskError(f"global optimum residual gradient {grad_norm:.2e} too large")
    f_star = task.global_loss(w_star)
    client_minima = [task.client_loss(k, task.client_optimum(k))
                     for k in range(task.n_clients)]
    gamma_noniid = max(0.0, f_star - float(np.mean(client_minima)))

    sgd_var = tuple(minibatch_gradient_variance(task, k, w_star, batch)
                    for k in range(task.n_clients))
    grad_bound = _gradient_norm_bound(task, w_star, trajectory_radius)

    return TaskConstants(
        mu=float(mu),
        lipschitz=float(lipschitz),
        kappa=float(lipschitz / mu),
        gamma_noniid=float(gamma_noniid),
        sgd_var=sgd_var,
        grad_bound=float(grad_bound),
        opt=w_star,
        opt_value=float(f_star),
        trajectory_radius=float(trajectory_radius),
    )


def stochastic_gradient(task, k, w, batch, rng):
    """Unbiased mini-batch gradient of F_k at w (uniform, without replacement)."""
    size = task.clients[k].size
    if not 1 <= batch <= size:
        raise ConfigError(f"batch must be in [1, {size}]")
    indices = rng.choice(size, size=batch, replace=False)
    return task.sample_gradient(k, w, indices)


def save_task(task, path):
    """Write a task to a JSON file; floats round-trip exactly."""
    payload = {
        "dim": task.dim,
        "ridge": task.ridge,
        "clients": [
            {"features": c.features.tolist(), "targets": c.targets.tolist()}
            for c in task.clients
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_task(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    clients = [ClientData(features=np.array(c["features"], dtype=np.float64),
                          targets=np.array(c["targets"], dtype=np.float64))
               for c in payload["clients"]]
    return QuadraticTask(clients=clients, ridge=payload["ridge"], dim=payload["dim"])
