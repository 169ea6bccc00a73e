"""Convergence-bound evaluation, rate fitting, and the statistical oracles.

The oracles check each moment claim on the process the engine runs: local
training is :func:`local_sgd`, the engine's ``local_steps``/``local_train``
on batches from its ``floyd_sample``, which also picks the client subsets.
Client subsets are enumerated; the other claims are estimated by vectorized
Monte Carlo and compared against their closed forms with 4-standard-error or
5% tolerances.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .engine import floyd_sample, local_steps, local_train
from .errors import ConfigError, StatisticalPowerError
from .policies import PRESETS, LearningRateSchedule
from .tasks import derive_constants
from .vectors import squared_distance

#: The presets whose schedule carries its own bound.
BOUND_VARIANTS = tuple(name for name, preset in PRESETS.items()
                       if preset.bound == name)

_MIN_MC_REPLICAS = 10_000
_EXHAUSTIVE_SUBSET_LIMIT = 10_000
_AGGREGATION_REL_TOL = 0.05


def sampling_deficiency(n_clients, n_participants):
    """(N - K) / (N - 1), defined as 0 under full participation (any N)."""
    if n_participants == n_clients:
        return 0.0
    return (n_clients - n_participants) / (n_clients - 1)


def sgd_noise_term(constants, local_epochs):
    """The rate constant's SGD term: ``sum_k sgd_var_k / N^2 + 6 L Gamma +
    8 (E - 1)^2 G^2``, what local SGD adds without any channel noise."""
    return (constants.sgd_var_mean_over_squared_clients
            + 6.0 * constants.lipschitz * constants.gamma_noniid
            + 8.0 * (local_epochs - 1) ** 2 * constants.grad_bound)


def rate_constant(policy, constants):
    """The constant scaling the 1/t bound that ``policy``'s schedule
    realizes (a :class:`ConfigError` if none): the SGD-variance,
    heterogeneity, local-drift, client-sampling, and channel-noise terms."""
    variant = policy.preset.bound
    if variant is None:
        raise ConfigError(f"policy {policy.name!r} has no convergence bound")
    e = policy.lr.local_epochs
    h2 = constants.grad_bound
    dim = constants.opt.size
    base = sgd_noise_term(constants, e)
    frac = sampling_deficiency(policy.n_clients, policy.n_participants)
    sampling = frac * 4.0 / policy.n_participants * e ** 2 * h2
    if variant == "mt_full":
        return base + 2.0 * dim
    if variant == "mt_partial":
        return base + sampling + 2.0 * dim
    mdt = 4.0 * e ** 2 * h2 / (policy.n_participants * policy.snr_target)
    return base + sampling + mdt + dim


def bound_formula(t, mu, kappa, gamma, rate_const, local_epochs, initial_gap):
    """The raw 1/(gamma+t) bound expression, all symbols supplied explicitly."""
    bracket = 4.0 * rate_const / mu ** 2 \
        + (8.0 * kappa + local_epochs) * initial_gap
    return bracket / (gamma + t)


def convergence_bound(t, policy, constants):
    """Closed-form upper bound on the expected squared distance after round
    t of a family with ``policy`` and ``constants``."""
    if t < 0:
        raise ConfigError("round index must be >= 0")
    lr = policy.lr
    return bound_formula(t, lr.mu, lr.kappa, lr.gamma,
                         rate_constant(policy, constants), lr.local_epochs,
                         constants.initial_gap)


def induction_constant(policy, constants):
    """max{beta^2 D / (beta mu - 1), (gamma + 1) * initial_gap}."""
    lr = policy.lr
    d_const = rate_constant(policy, constants)
    return max(lr.beta ** 2 * d_const / (lr.beta * lr.mu - 1.0),
               (lr.gamma + 1.0) * constants.initial_gap)


def recursion_envelope(policy, constants, steps):
    """Iterate the one-step contraction numerically from the initial gap.

    Returns the sequence ``delta_0 .. delta_steps`` obeyed by
    ``delta_(t+1) = (1 - eta_t mu) delta_t + eta_t^2 D``; by construction it
    never exceeds ``induction_constant / (gamma + t)``.
    """
    lr = policy.lr
    d_const = rate_constant(policy, constants)
    deltas = [constants.initial_gap]
    for t in range(1, steps + 1):
        eta = lr.eta(t)
        deltas.append((1.0 - eta * lr.mu) * deltas[-1] + eta ** 2 * d_const)
    return np.array(deltas)


@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit of distance against round index."""

    slope: float
    intercept: float
    window: tuple
    residual: float
    excluded: int = 0


#: The fewest usable points :func:`fit_rate` fits.
MIN_FIT_POINTS = 10


def default_slope_window(rounds):
    """The window a slope fit of a ``rounds``-round trace uses unless given:
    its last three quarters, ``(max(rounds // 4, 1), rounds)``."""
    return max(rounds // 4, 1), rounds


def fit_rate(rounds, values, window):
    """Fit log(value) = slope * log(t) + intercept over ``window = (lo, hi)``.

    Nonpositive values inside the window are excluded and counted; at least
    ``MIN_FIT_POINTS`` usable points are required.
    """
    rounds = np.asarray(rounds, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    lo, hi = window
    in_window = (rounds >= lo) & (rounds <= hi)
    usable = in_window & (values > 0)
    excluded = int(in_window.sum() - usable.sum())
    if usable.sum() < MIN_FIT_POINTS:
        raise ConfigError("rate fit needs at least 10 positive points in window")
    x = np.log(rounds[usable])
    y = np.log(values[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   window=(lo, hi), residual=resid, excluded=excluded)


# ---------------------------------------------------------------------------
# Statistical oracles.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    """Outcome of one statistical check."""

    name: str
    passed: bool
    estimate: float
    reference: float
    tolerance: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: estimate={self.estimate:.6g} "
                f"reference={self.reference:.6g} tol={self.tolerance:.3g} "
                f"{self.detail}").rstrip()


def _require_replicas(replicas):
    if replicas < _MIN_MC_REPLICAS:
        raise StatisticalPowerError(
            f"need at least {_MIN_MC_REPLICAS} replicas, got {replicas}")


def local_sgd(task, clients, starts, etas, batch, rng):
    """The engine's local mini-batch SGD, one step per rate in ``etas``,
    from ``starts`` (one ``(d,)`` model or an ``(n, d)`` row per client of
    ``clients``, which may repeat): each step draws ``batch`` distinct
    samples per row by Floyd's algorithm, or uses the full dataset when
    ``batch`` covers it."""
    size = task.samples_per_client
    w = np.broadcast_to(starts, (len(clients), task.dim))
    if batch >= size:       # exact gradients: every step shares the data
        return local_train(w, local_steps(task, clients, None, etas))
    for eta in etas:
        w = local_train(w, local_steps(task, clients, floyd_sample(
            rng.random((1, len(clients), batch)), size), [eta]))
    return w


def aggregation_noise_oracle(n_clients, dim, variances, replicas, rng):
    """Moments of the averaged uplink noise across clients.

    Checks that the client-averaged noise has zero mean (within 4 standard
    errors per coordinate) and squared norm ``dim * sum(var) / N^2`` within
    5%.
    """
    _require_replicas(replicas)
    variances = np.broadcast_to(np.asarray(variances, dtype=np.float64),
                                (n_clients,))
    draws = rng.normal(size=(replicas, n_clients, dim)) \
        * np.sqrt(variances)[None, :, None]
    averaged = draws.mean(axis=1)
    predicted = dim * float(variances.sum()) / n_clients ** 2

    norms = np.einsum("rd,rd->r", averaged, averaged)
    estimate = float(norms.mean())
    var_ok = abs(estimate - predicted) <= _AGGREGATION_REL_TOL * predicted

    coord_mean = averaged.mean(axis=0)
    coord_se = averaged.std(axis=0, ddof=1) / math.sqrt(replicas)
    mean_ok = bool(np.all(np.abs(coord_mean) <= 4.0 * coord_se))

    return OracleReport(
        name="aggregation_noise_moments",
        passed=var_ok and mean_ok,
        estimate=estimate,
        reference=predicted,
        tolerance=_AGGREGATION_REL_TOL,
        detail=f"zero-mean check {'ok' if mean_ok else 'failed'}",
    )


def client_sampling_oracle(models, n_participants, eta, local_epochs,
                           grad_bound):
    """Moments of subset-averaging applied to frozen local models.

    Enumerates every K-subset of the N models, at most 10^4 of them: the
    subset average must be unbiased for the full average and its variance
    must respect the sampling-deficiency bound
    ``(N-K)/(N-1) * 4/K * eta^2 E^2 H^2``.
    """
    models = np.atleast_2d(np.asarray(models, dtype=np.float64))
    n_clients = models.shape[0]
    if not 1 <= n_participants <= n_clients:
        raise ConfigError("need 1 <= participants <= clients")
    n_subsets = math.comb(n_clients, n_participants)
    if n_subsets > _EXHAUSTIVE_SUBSET_LIMIT:
        raise ConfigError(f"{n_subsets} client subsets exceed the "
                          f"enumeration limit {_EXHAUSTIVE_SUBSET_LIMIT}")
    full_mean = models.mean(axis=0)
    subset_means = np.array([
        models[list(s)].mean(axis=0)
        for s in combinations(range(n_clients), n_participants)])
    unbiased = bool(np.allclose(
        subset_means.mean(axis=0), full_mean,
        rtol=0.0, atol=1e-12 * (1.0 + np.abs(full_mean).max())))
    deviations = subset_means - full_mean
    variance = float(np.einsum("sd,sd->s", deviations, deviations).mean())
    bound = (sampling_deficiency(n_clients, n_participants)
             * 4.0 / n_participants * eta ** 2 * local_epochs ** 2 * grad_bound)
    return OracleReport(
        name="client_sampling_moments",
        passed=unbiased and variance <= bound * (1.0 + 1e-9),
        estimate=variance,
        reference=bound,
        tolerance=0.0,
        detail="exhaustive" + ("" if unbiased else "; unbiasedness failed"),
    )


def differential_upload_oracle(task, w_prev, n_participants, snr_target,
                               downlink_variance, local_epochs, batch,
                               replicas, rng):
    """Second moment of the gap between the sampling-only average and the
    reconstructed global model under constant-SNR differential upload.

    Per replica, every client receives a noisy broadcast, trains with
    :func:`local_sgd`, and uploads its differential with noise scaled to hit
    ``snr_target``; a random subset of size K is aggregated.  The measured
    E||gap||^2 must stay below
    ``(1 + 1/nu) d/K zeta^2 + 4 E^2/(K nu) eta^2 H^2``, with H^2 bounded over
    a ball holding the visited states: twice the start's distance to the
    optimum plus a generous allowance for the broadcast noise.
    """
    _require_replicas(replicas)
    n_clients = task.n_clients
    dim = task.dim
    w_prev = np.asarray(w_prev, dtype=np.float64)
    start = math.sqrt(squared_distance(w_prev, task.global_optimum()))
    noise_room = 6.0 * math.sqrt(dim * max(downlink_variance, 1e-12))
    # mu and kappa, and so the rates, do not depend on the radius.
    constants = derive_constants(task, task.samples_per_client,
                                 max(2.0 * (start + noise_room), 1.0))
    lr = LearningRateSchedule.from_constants(constants, local_epochs)
    etas = lr.etas(local_epochs)

    # Broadcast noise, local training, and differentials for every client in
    # every replica (train-all-aggregate-some keeps the subsets exchangeable),
    # one client's replicas per call, so the gathered batches stay small.
    received = np.empty((n_clients, replicas, dim))
    trained = np.empty((n_clients, replicas, dim))
    for k in range(n_clients):
        noise = rng.normal(size=(replicas, dim)) * math.sqrt(downlink_variance)
        received[k] = w_prev[None, :] + noise
        trained[k] = local_sgd(task, np.full(replicas, k), received[k], etas,
                               batch, rng)
    diffs = np.subtract(trained, received, out=received)   # (N, R, dim)
    diff_power = np.einsum("krd,krd->kr", diffs, diffs)
    sigma2 = diff_power / (dim * snr_target)
    uplink = rng.normal(size=(n_clients, replicas, dim))
    uplink *= np.sqrt(sigma2)[:, :, None]

    picks = floyd_sample(rng.random((replicas, n_participants)), n_clients)
    rows = np.arange(replicas)[:, None]
    sel_trained = trained[picks, rows, :]                  # (R, K, dim)
    sel_payload = diffs[picks, rows, :] + uplink[picks, rows, :]
    u_bar = sel_trained.mean(axis=1)
    recon = w_prev[None, :] + sel_payload.mean(axis=1)
    gap = u_bar - recon
    gaps = np.einsum("rd,rd->r", gap, gap)
    estimate = float(gaps.mean())

    eta = lr.eta(local_epochs)
    rhs = ((1.0 + 1.0 / snr_target) * dim / n_participants * downlink_variance
           + 4.0 * local_epochs ** 2 / (n_participants * snr_target)
           * eta ** 2 * constants.grad_bound)
    return OracleReport(
        name="differential_upload_variance",
        passed=estimate <= rhs,
        estimate=estimate,
        reference=rhs,
        tolerance=0.0,
        detail=f"E={local_epochs} nu={snr_target}",
    )


def sgd_one_step_oracle(task, state, lr, iter_index, batch, replicas, rng,
                        constants):
    """One SGD step of :func:`local_sgd` from a frozen per-client state (row
    k on client k): the averaged iterate's expected squared distance to the
    optimum must respect the one-step contraction-plus-noise bound (with
    4-standard-error slack on the Monte-Carlo side)."""
    _require_replicas(replicas)
    state = np.atleast_2d(np.asarray(state, dtype=np.float64))
    w_star = constants.opt
    eta = lr.eta(iter_index)

    w_bar = state.mean(axis=0)
    # One client's replicas per call, so the gathered batches stay small.
    v_bar = sum(local_sgd(task, np.full(replicas, k), w_k, [eta], batch, rng)
                for k, w_k in enumerate(state)) / len(state)
    diff = v_bar - w_star[None, :]
    lhs_samples = np.einsum("rd,rd->r", diff, diff)
    estimate = float(lhs_samples.mean())
    se = float(lhs_samples.std(ddof=1)) / math.sqrt(replicas)

    rhs = (1.0 - eta * constants.mu) * squared_distance(w_bar, w_star) \
        + eta ** 2 * sgd_noise_term(constants, lr.local_epochs)
    return OracleReport(
        name="sgd_one_step_bound",
        passed=estimate <= rhs + 4.0 * se,
        estimate=estimate,
        reference=rhs,
        tolerance=4.0 * se,
        detail=f"iter={iter_index}",
    )
