"""Synthetic strongly convex learning tasks with analytically known optima.

Each client holds a ridge-regularized least-squares objective

    F_k(w) = 1/(2 D_k) * sum_i (a_i^T w - y_i)^2 + ridge/2 * ||w||^2,

so per-client Hessians, optima, and minima are all available in closed form.
The generator controls the per-client curvature spectrum exactly (features are
built from orthonormal columns), which keeps condition numbers small and
predictable, and shifts per-client target-generating optima apart to dial in
heterogeneity.

All datasets have equal size per client and are held once, stacked: a task
is its ``(N, D, d)`` features and ``(N, D)`` targets, and each per-client
quantity is computed for every client at once.  The global objective is the
plain average of the per-client ones.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TaskError

_GRAD_TOL_AT_OPT = 1e-8


class QuadraticTask:
    """A federated least-squares problem over equally sized client datasets,
    held as the stacked ``(N, D, d)`` features and ``(N, D)`` targets and as
    each client's moments, ``hessians`` ``A^T A / D`` and ``cross_moments``
    ``A^T y / D``, which give ``global_hessian`` (ridge included), the
    ``optimum`` w* and its loss ``opt_value``."""

    def __init__(self, features, targets, ridge):
        features = np.array(features, dtype=np.float64)
        targets = np.array(targets, dtype=np.float64)
        if features.ndim != 3 or features.shape[:2] != targets.shape \
                or not features.size:
            raise TaskError("features must be a non-empty (clients, samples, "
                            "dim) stack with (clients, samples) targets")
        self.ridge = float(ridge)
        if self.ridge < 0:
            raise TaskError("ridge must be non-negative")
        self.features = features
        self.targets = targets
        self.n_clients, self.samples_per_client, self.dim = features.shape
        # Each client's products of its own (D, d) block; sums run in order.
        transposed, size = features.transpose(0, 2, 1), features.shape[1]
        self.hessians = np.matmul(transposed, features) / size
        self.cross_moments = np.matvec(transposed, targets) / size
        # With ridge == 0 a rank-deficient design breaks strong convexity.
        if self.ridge == 0.0:
            eigs = np.linalg.eigvalsh(self.hessians)
            deficient = np.flatnonzero(eigs[:, 0] <= 1e-10)
            if deficient.size:
                raise TaskError(f"client {deficient[0]}: data Hessian is rank "
                                "deficient and ridge is 0")
        self.global_hessian = np.add.reduce(self.hessians) / self.n_clients \
            + self.ridge * np.eye(self.dim)
        self.optimum = np.linalg.solve(self.global_hessian, np.add.reduce(
            self.cross_moments) / self.n_clients)
        # F* once, from the rows: mean(r^2) / 2 + ridge ||w*||^2 / 2.
        w = self.optimum
        residual = features.reshape(-1, self.dim) @ w - targets.ravel()
        self.opt_value = float(0.5 * (residual @ residual) / residual.size
                               + 0.5 * self.ridge * (w @ w))

    def _residuals(self, w):
        """Every client's ``A w - y``, ``(N, D)``, at ``w`` or at its own
        row of an ``(N, d)`` array."""
        return np.matmul(self.features, w[..., None])[..., 0] - self.targets

    def client_gradients(self, w):
        """Every client's gradient, ``(N, d)``, at ``w`` or at its own row."""
        return np.matvec(self.hessians, w) - self.cross_moments \
            + self.ridge * w

    def global_gradient(self, w):
        return np.add.reduce(self.client_gradients(w)) / self.n_clients

    def client_losses(self, w):
        """Every client's loss, ``(N,)``, at ``w`` or at its own row of an
        ``(N, d)`` array."""
        residual = self._residuals(w)
        w = np.broadcast_to(w, (self.n_clients, self.dim))
        squares = ((0.5 * residual[:, None]) @ residual[..., None])[:, 0, 0]
        return squares / residual.shape[1] \
            + 0.5 * self.ridge * (w[:, None] @ w[..., None])[:, 0, 0]

    def global_loss(self, w):
        return float(self.global_losses(w[None])[0])

    def global_losses(self, ws):
        """The global loss at each row w of ``ws``, exactly ``F* + delta^T
        global_hessian delta / 2`` with ``delta = w - w*``, by stacked
        products, so that a row's value does not depend on the others."""
        delta = ws - self.optimum
        curved = np.matvec(self.global_hessian, delta)
        return self.opt_value \
            + 0.5 * (delta[:, None] @ curved[:, :, None])[:, 0, 0]

    def client_optima(self):
        """Every client's optimum, ``(N, d)``."""
        return np.linalg.solve(self.hessians + self.ridge * np.eye(self.dim),
                               self.cross_moments[..., None])[..., 0]

    def sample_gradient(self, k, w, indices):
        """Gradient of F_k restricted to the given sample rows (plus ridge)."""
        a = self.features[k, indices]
        residual = a @ w - self.targets[k, indices]
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

    @property
    def initial_gap(self):
        """The squared distance from the zero start to the optimum."""
        return float(np.sum(self.opt ** 2))


def make_task(n_clients, dim, samples_per_client, heterogeneity=1.0, ridge=0.1,
              noise_std=1.0, spectrum=(1.0, 1.1), seed=0):
    """Generate a reproducible federated least-squares task.

    Per client, features are drawn with orthonormal columns and an exact
    curvature spectrum sampled uniformly from ``spectrum``; targets come from a
    client-specific generating model ``base + heterogeneity * shift_k`` plus
    Gaussian observation noise of standard deviation ``noise_std``.
    """
    for key, count in (("n_clients", n_clients), ("dim", dim),
                       ("samples_per_client", samples_per_client)):
        if count < 1:
            raise ConfigError(f"task.{key}: must be >= 1")
    if samples_per_client < dim:
        raise ConfigError(f"task.samples_per_client: must be >= task.dim "
                          f"({dim}) for orthonormal designs")
    if ridge < 0:
        raise ConfigError("task.ridge: must be non-negative")
    lo, hi = spectrum
    if not (0 < lo <= hi):
        raise ConfigError("task.spectrum: bounds must satisfy 0 < lo <= hi")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(101,)))
    base = rng.normal(size=dim)
    # Drawn client by client, then built for all clients at once.
    gauss, rot, spect, shift, noise = map(np.array, zip(*[
        (rng.normal(size=(samples_per_client, dim)),
         rng.normal(size=(dim, dim)), rng.uniform(lo, hi, size=dim),
         rng.normal(size=dim), rng.normal(size=samples_per_client))
        for _ in range(n_clients)]))
    # Orthonormal columns, scaled in place once the draws are freed, so that
    # the moments the task adds do not raise its peak memory.
    features = np.linalg.qr(gauss)[0]
    del gauss
    features *= np.sqrt(samples_per_client * spect)[:, None]
    features = features @ np.linalg.qr(rot)[0].transpose(0, 2, 1)
    w_gen = base + heterogeneity * (shift / np.sqrt(dim))
    signal = np.matmul(features, w_gen[..., None])[..., 0]
    noise = noise_std * noise
    with np.errstate(over="ignore"):
        for key, part in (("heterogeneity", signal), ("noise_std", noise)):
            if not math.isfinite(np.vdot(part, part)):
                raise ConfigError(f"task.{key}: so large that the targets' "
                                  "squares overflow")
    return QuadraticTask(features, signal + noise, ridge)


def minibatch_gradient_variance(task, w, batch):
    """Every client's exact E||g_batch - grad F_k||^2 for without-replacement
    batches, ``(N,)``, at ``w`` or at its own row of an ``(N, d)`` array."""
    size = task.samples_per_client
    if not 1 <= batch <= size:
        raise ConfigError(f"run.batch_size: {batch} must be in [1, {size}] "
                          "(task.samples_per_client)")
    grads = task.features * task._residuals(w)[..., None] \
        + task.ridge * w[..., None, :]
    center = grads.mean(axis=1)
    pop_var = np.sum((grads - center[:, None]) ** 2, axis=(1, 2)) / size
    # Variance of a simple-random-sample mean, finite population of size D.
    return pop_var * (size - batch) / (batch * (size - 1))


@np.errstate(over="ignore", invalid="ignore")    # the bound check below
def derive_constants(task, batch, trajectory_radius):
    """Compute the smoothness/convexity/heterogeneity constants of a task."""
    if trajectory_radius <= 0:
        raise ConfigError("trajectory_radius must be positive")
    sgd_var = tuple(minibatch_gradient_variance(task, task.optimum,
                                                batch).tolist())
    eigs = np.linalg.eigvalsh(task.hessians)
    indefinite = np.flatnonzero(eigs[:, 0] + task.ridge <= 0)
    if indefinite.size:
        raise TaskError(f"client {indefinite[0]}: Hessian not positive definite")
    mu = task.ridge + eigs[:, 0].min()
    lipschitz = task.ridge + eigs[:, -1].max()

    w_star = task.optimum
    # The solve is accurate relative to the gradient's scale, ||grad F(0)||.
    scale = float(np.linalg.norm(task.global_gradient(np.zeros(task.dim))))
    grad_norm = float(np.linalg.norm(task.global_gradient(w_star)))
    if not grad_norm <= _GRAD_TOL_AT_OPT * max(1.0, scale):
        raise TaskError(f"global optimum residual gradient {grad_norm:.2e} "
                        f"too large for a gradient scale of {scale:.2e}")
    gamma_noniid = max(0.0, task.opt_value - float(np.mean(
        task.client_losses(task.client_optima()))))

    # The worst per-sample gradient norm over the trajectory ball, squared: a
    # batch gradient is a mean of per-sample ones, so this dominates
    # E||grad F_k(w, batch)||^2 anywhere in the ball.
    row_norms = np.linalg.norm(task.features, axis=-1)
    ridge_term = task.ridge * float(np.linalg.norm(w_star)
                                    + trajectory_radius)
    peak = float(np.max(row_norms * (np.abs(task._residuals(w_star))
                                     + trajectory_radius * row_norms)
                        + ridge_term))
    grad_bound = peak * peak
    if not math.isfinite(grad_bound):
        raise ConfigError(
            f"task.ridge: {task.ridge:g} makes the gradient bound overflow"
            if ridge_term * ridge_term == math.inf else
            f"task: the gradient bound {peak:g}^2 overflows")

    return TaskConstants(
        mu=float(mu), lipschitz=float(lipschitz), kappa=float(lipschitz / mu),
        gamma_noniid=float(gamma_noniid), sgd_var=sgd_var,
        grad_bound=grad_bound, opt=w_star, opt_value=task.opt_value,
        trajectory_radius=float(trajectory_radius))


def stochastic_gradient(task, k, w, batch, rng):
    """Unbiased mini-batch gradient of F_k at w (uniform, without replacement)."""
    size = task.samples_per_client
    if not 1 <= batch <= size:
        raise ConfigError(f"batch must be in [1, {size}]")
    indices = rng.choice(size, size=batch, replace=False)
    return task.sample_gradient(k, w, indices)


def save_task(task, path):
    """Write a task to a JSON file; floats round-trip exactly."""
    payload = {
        "dim": task.dim,
        "ridge": task.ridge,
        "clients": [{"features": f.tolist(), "targets": t.tolist()}
                    for f, t in zip(task.features, task.targets)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_task(path):
    """Read a task that :func:`save_task` wrote.  A file that cannot be read
    or does not hold such a task is a :class:`ConfigError` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        features, targets = (
            np.array([c[key] for c in payload["clients"]], dtype=np.float64)
            for key in ("features", "targets"))
        if features.ndim != 3 or features.shape[2] != payload["dim"]:
            raise TaskError(f"features must be (samples, {payload['dim']}) "
                            "per client")
        return QuadraticTask(features, targets, payload["ridge"])
    except OSError as exc:
        raise ConfigError(f"task file {path}: cannot read ({exc.strerror})") \
            from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"task file {path}: invalid JSON ({exc})") from exc
    except KeyError as exc:
        raise ConfigError(f"task file {path}: missing key {exc}") from exc
    except (ValueError, TypeError, TaskError) as exc:
        raise ConfigError(f"task file {path}: {exc}") from exc
