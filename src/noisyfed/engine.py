"""The federated-averaging-over-noisy-channels state machine.

One run executes, per round: uniform client sampling, noisy downlink broadcast
of the current global model, local mini-batch SGD at each recipient, noisy
uplink of either the full local model (``MT``) or its differential against the
model the client just received (``MDT``), and server-side averaging.  The
recipients of a round are one ``(n, d)`` array, trained together.

Randomness follows stream layout 5 (:mod:`noisyfed.seeding`): round t draws
the t-th block of its domain's stream, with a row for each of the N clients,
sampled or not.  Effective noise is a unit-variance ``(N, d)`` block per
direction, drawn every round and scaled row by row; the batches are ``B``
uniforms per (local step, client), turned into indices by
:func:`floyd_sample`.  Both are read ``ROUND_CHUNK`` rounds per call, which
changes no draw; the analog layer and client sampling draw round by round.
So traces are bit-reproducible, and training all clients but aggregating the
sampled ones gives the same trajectory as sampling first.

The learning rate is indexed on the per-iteration timeline (round t covers
iterations (t-1)E+1 .. tE); noise and power schedules are indexed per round by
default, switchable to the aggregation-instant iteration index.
"""

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .channel import (NOISE_DISTRIBUTIONS, NoiseSpec, analog_downlink_receive,
                      analog_uplink_aggregate, measure_global_snr,
                      sample_noise)
from .errors import AggregationError, ConfigError, DivergenceError, PolicyError
from .policies import build_policy, LearningRateSchedule, mdt_uplink_variance
from .seeding import (DOMAIN_BATCH, DOMAIN_DOWNLINK, DOMAIN_FADE_DOWNLINK,
                      DOMAIN_FADE_UPLINK, DOMAIN_SAMPLING, DOMAIN_UPLINK,
                      stream)
from .tasks import derive_constants
from .vectors import squared_distance

#: Rounds of effective-noise and batch blocks read per generator call.
ROUND_CHUNK = 32

TRACE_COLUMNS = ("t", "sq_dist", "loss", "eta", "sigma2_ul", "zeta2_dl",
                 "rho_ul", "rho_dl", "div_ul", "div_dl", "snr_global",
                 "energy_cum")

TRANSMISSION_MODES = ("MT", "MDT")
CHANNEL_LAYERS = ("effective_noise", "analog_physical")
SCHEDULE_TIMELINES = ("round", "iteration")


@dataclass(frozen=True)
class RoundTrace:
    """Observables recorded after each aggregation round."""

    t: int
    sq_dist: float
    loss: float
    eta: float
    sigma2_ul: float
    zeta2_dl: float
    rho_ul: float
    rho_dl: float
    div_ul: int
    div_dl: int
    snr_global: float
    energy_cum: float

    def as_row(self):
        return tuple(getattr(self, name) for name in TRACE_COLUMNS)


@dataclass(frozen=True)
class VirtualSequences:
    """Averaged trajectories at one aggregation instant (full participation).

    ``p_bar`` coincides with the server's global model; ``w_bar`` adds the mean
    of the next broadcast's downlink noises; ``u_bar`` strips the uplink noise
    and ``v_bar`` averages the raw local models (equal to ``u_bar`` under full
    participation).
    """

    round_index: int
    v_bar: np.ndarray
    u_bar: np.ndarray
    p_bar: np.ndarray
    w_bar: np.ndarray


@dataclass
class RunConfig:
    """Complete description of one experiment (policy given by name+params)."""

    n_participants: int
    rounds: int
    local_epochs: int = 1
    batch_size: int = None          # None = full batch
    mode: str = "MT"
    channel: str = "effective_noise"
    distribution: str = "gaussian"
    seed: int = 0
    policy_name: str = "noise_free"
    policy_params: dict = field(default_factory=dict)
    w0: object = None               # None = zero vector
    schedule_on: str = "round"
    record_virtual: bool = False
    virtual_all_clients: bool = False
    divergence_factor: float = 1e6
    trajectory_radius_factor: float = 2.0

    def __post_init__(self):
        if self.n_participants < 1 or self.rounds < 1 or self.local_epochs < 1:
            raise ConfigError("participants, rounds and local_epochs must be >= 1")
        if self.mode not in TRANSMISSION_MODES:
            raise ConfigError(f"mode must be one of {TRANSMISSION_MODES}")
        if self.channel not in CHANNEL_LAYERS:
            raise ConfigError(f"channel must be one of {CHANNEL_LAYERS}")
        if self.distribution not in NOISE_DISTRIBUTIONS:
            raise ConfigError(
                f"distribution must be one of {NOISE_DISTRIBUTIONS}")
        if self.policy_name == "mdt_constant_snr" and self.mode != "MDT":
            raise ConfigError("policy 'mdt_constant_snr' needs mode 'MDT'")
        if self.channel == "analog_physical" \
                and self.policy_params.get("weights") is not None:
            # The analog layer sends every client at one power per round.
            raise ConfigError(f"policy {self.policy_name!r} weights need "
                              "channel 'effective_noise'")
        if self.schedule_on not in SCHEDULE_TIMELINES:
            raise ConfigError(f"schedule_on must be one of {SCHEDULE_TIMELINES}")
        if self.divergence_factor <= 1:
            raise ConfigError("divergence_factor must exceed 1")
        if self.trajectory_radius_factor <= 0:
            raise ConfigError("trajectory_radius_factor must be positive")


@dataclass
class RunResult:
    """Everything observable from one run.  ``mean_uplink_noise`` and
    ``mean_downlink_noise`` are empty unless ``record_virtual`` is on."""

    traces: list
    constants: object
    lr: LearningRateSchedule
    sampled: list
    virtual: list
    mean_uplink_noise: list
    mean_downlink_noise: list
    initial_model: np.ndarray
    final_model: np.ndarray
    policy_name: str
    policy_params: dict
    energy_uplink: float
    energy_downlink: float
    diagnostics: dict

    @property
    def sq_dists(self):
        return np.array([tr.sq_dist for tr in self.traces])

    @property
    def rounds(self):
        return np.array([tr.t for tr in self.traces])


def sample_clients(n_clients, n_participants, rng):
    """Uniform without-replacement subset of clients, returned sorted."""
    if not 1 <= n_participants <= n_clients:
        raise ConfigError("need 1 <= participants <= clients")
    picked = rng.choice(n_clients, size=n_participants, replace=False)
    return np.sort(picked)


def floyd_sample(uniforms, population):
    """B distinct indices of ``range(population)`` per row of the ``(..., B)``
    uniforms, by Floyd's algorithm: for j = population - B .. population - 1,
    the row's next uniform u gives ``r = floor(u * (j + 1))``, and the row
    takes r, or j if it holds r already.  Every B-subset is equally likely.
    """
    size = uniforms.shape[-1]
    picks = np.empty(uniforms.shape, dtype=np.intp)
    for i, j in enumerate(range(population - size, population)):
        r = (uniforms[..., i] * (j + 1)).astype(np.intp)
        taken = (picks[..., :i] == r[..., None]).any(axis=-1)
        picks[..., i] = np.where(taken, j, r)
    return picks


def _sgd_steps(w_start, task, clients, batches, etas):
    """Yield the ``(n, d)`` iterate after each step of :func:`local_train`."""
    clients = np.asarray(clients)
    rows = clients if batches is None else (clients[None, :, None], batches)
    feats, targets = task.features[rows], task.targets[rows]
    w = np.array(w_start, dtype=np.float64, copy=True)
    for j, eta in enumerate(etas):
        a, y = (feats, targets) if batches is None \
            else (feats[j], targets[j])
        residual = (a @ w[:, :, None])[:, :, 0] - y
        grad = (a.transpose(0, 2, 1) @ residual[:, :, None])[:, :, 0] \
            / a.shape[1] + task.ridge * w
        w = w - eta * grad
        yield w


def local_train(w_start, task, clients, batches, etas):
    """Run one step of mini-batch SGD per rate in ``etas`` for several
    clients at once.

    Row i of the ``(n, d)`` array ``w_start`` starts ``clients[i]``, which
    may repeat.  ``batches`` holds each step's sample indices,
    ``(len(etas), n, B)``, or is None for exact full-batch gradients.  A
    :class:`DivergenceError` names the first row's client, in the order of
    ``clients``, whose iterate became non-finite, and its first such step.
    """
    w = w_start
    for w in _sgd_steps(w_start, task, clients, batches, etas):
        pass
    bad = ~np.isfinite(w).all(axis=1)
    if not bad.any():
        return w
    # Non-finite is absorbing, so the first bad row at the end is the one to
    # name; replay the steps to find its first non-finite one.
    i = int(np.argmax(bad))
    step = next(j for j, w in enumerate(
        _sgd_steps(w_start, task, clients, batches, etas), 1)
        if not np.isfinite(w[i]).all())
    raise DivergenceError(f"client {clients[i]}: non-finite iterate at "
                          f"local step {step}")


def uplink_transmit(w_local, mode, w_prev_global, w_received, noise):
    """Server-side reconstruction of uploads, one client or one row each.

    ``MT`` uploads the model itself; ``MDT`` uploads the differential against
    the model the client received this round, which the server adds back onto
    its retained global model.  ``noise`` is the effective uplink perturbation.
    """
    if mode == "MT":
        return w_local + noise
    if mode == "MDT":
        if w_received is None or w_prev_global is None:
            raise ConfigError(
                "differential upload needs the client's received model and "
                "the server's retained global model")
        differential = w_local - w_received
        return w_prev_global + differential + noise
    raise ConfigError(f"unknown transmission mode {mode!r}")


def aggregate(uploads):
    """Plain average of the ``(n, d)`` uploads (equal dataset sizes)."""
    uploads = np.asarray(uploads, dtype=np.float64)
    if len(uploads) == 0:
        raise AggregationError("no received models to aggregate")
    return uploads.mean(axis=0)


def _schedule_indices(cfg, t):
    """(uplink, downlink) schedule indices for round t under the configured
    timeline."""
    if cfg.schedule_on == "round":
        return t, t
    e = cfg.local_epochs
    return t * e, max((t - 1) * e, 1)


def _round_blocks(draw, rng, shape, rounds):
    """Yield ``rounds`` consecutive ``shape`` blocks of ``draw(size, rng)``,
    read ``ROUND_CHUNK`` rounds per call.  ``draw`` fills its array in C
    order, so the chunk changes no value."""
    for start in range(0, rounds, ROUND_CHUNK):
        yield from draw((min(ROUND_CHUNK, rounds - start),) + shape, rng)


def _scaled_noise(unit, variances):
    """Unit-variance rows ``unit``, row i scaled to variance ``variances[i]``."""
    variances = np.asarray(variances, dtype=np.float64)
    if variances.min() < 0:
        raise PolicyError("noise variance must be non-negative")
    return unit * np.sqrt(variances)[:, None]


def downlink_broadcast(w_global, unit, variances):
    """The global model as received through each row of unit-variance noise
    ``unit``, row i scaled to variance ``variances[i]`` (0: an exact copy)."""
    return w_global + _scaled_noise(unit, variances)


def run(task, config, policy=None):
    """Execute a run and return its :class:`RunResult`.

    A prebuilt policy may be supplied; otherwise it is constructed from
    ``config.policy_name``/``policy_params`` and the task's derived constants.
    """
    n_clients = task.n_clients
    n_participants = config.n_participants
    if n_participants > n_clients:
        raise ConfigError("participants exceed the number of clients")
    dim = task.dim
    batch = config.batch_size if config.batch_size is not None \
        else task.samples_per_client
    epochs = config.local_epochs
    seed = config.seed
    effective = config.channel == "effective_noise"

    w_star = task.global_optimum()
    w0 = np.zeros(dim) if config.w0 is None \
        else np.array(config.w0, dtype=np.float64, copy=True)
    if w0.shape != (dim,):
        raise ConfigError("w0 has the wrong dimension")
    initial_sq = squared_distance(w0, w_star)
    radius = config.trajectory_radius_factor * max(math.sqrt(initial_sq), 1.0)
    constants = derive_constants(task, batch, radius)
    lr = LearningRateSchedule.from_constants(constants, epochs)
    if policy is None:
        policy = build_policy(config.policy_name, config.policy_params,
                              constants, n_clients, n_participants, epochs)

    record_virtual = config.record_virtual
    if record_virtual and n_participants != n_clients:
        raise ConfigError("virtual-sequence tracing requires full participation")
    train_all = config.virtual_all_clients or record_virtual
    all_clients = np.arange(n_clients)
    rounds = config.rounds
    etas = lr.etas(rounds * epochs).tolist()

    # One generator per domain and run; only the domains the run uses.
    if n_participants < n_clients:
        sampling_rng = stream(seed, DOMAIN_SAMPLING)
    if effective:
        noise = partial(sample_noise, NoiseSpec(1.0, config.distribution))
        # Block T+1 of the downlink completes the last virtual sequence.
        down_blocks = _round_blocks(noise, stream(seed, DOMAIN_DOWNLINK),
                                    (n_clients, dim), rounds + record_virtual)
        up_blocks = _round_blocks(noise, stream(seed, DOMAIN_UPLINK),
                                  (n_clients, dim), rounds)
    else:
        fade_dl_rng = stream(seed, DOMAIN_FADE_DOWNLINK)
        fade_ul_rng = stream(seed, DOMAIN_FADE_UPLINK)
    batch_blocks = None if batch == task.samples_per_client else _round_blocks(
        lambda size, rng: floyd_sample(rng.random(size),
                                       task.samples_per_client),
        stream(seed, DOMAIN_BATCH), (epochs, n_clients, batch), rounds)

    def broadcast(w, rp, rows):     # received rows, deep-fade retries
        if effective:
            zeta2 = np.full(n_clients, rp.downlink_variance)[rows]
            return downlink_broadcast(w, next(down_blocks)[rows], zeta2), 0
        received, info = analog_downlink_receive(
            w, power=rp.rho_dl, rng=fade_dl_rng, copies=rp.div_dl,
            receivers=n_clients)
        return received[rows], info["retries"]

    # Divergence guard; floored so a start at the optimum still tolerates noise.
    guard = config.divergence_factor * max(initial_sq, 1.0)

    w = w0.copy()
    traces = []
    sampled_sets = []
    virtual = []                # w_bar filled in after the last round
    mean_up_noises = []
    mean_down_noises = []
    energy_ul = 0.0
    energy_dl = 0.0
    max_iterate_sq = initial_sq
    fade_retries = 0

    for t in range(1, rounds + 1):
        idx_up, idx_down = _schedule_indices(config, t)
        rp_up = policy.round_params(idx_up)
        rp_down = rp_up if idx_down == idx_up else policy.round_params(idx_down)

        # Full participation selects everyone; the sampling stream is
        # separate, so not drawing it changes no other draw.
        selected = all_clients if n_participants == n_clients else \
            sample_clients(n_clients, n_participants, sampling_rng)
        sampled_sets.append(selected)
        recipients = all_clients if train_all else selected
        sel = selected if train_all else slice(None)   # rows of the sampled

        # (1) Downlink broadcast.
        received, retries = broadcast(w, rp_down, recipients)
        fade_retries += retries

        # (2) Local mini-batch SGD.
        batches = None if batch_blocks is None \
            else next(batch_blocks)[:, recipients]
        local = local_train(received, task, recipients, batches,
                            etas[(t - 1) * epochs:t * epochs])
        visited = np.concatenate((received, local)) - w_star
        max_iterate_sq = max(max_iterate_sq,
                             float(np.max(np.sum(visited * visited, axis=1))))

        # (3) Uplink transmission and (4) aggregation.
        if effective:
            if rp_up.uplink_variance is None:
                sigma2 = np.array([
                    mdt_uplink_variance(diff, rp_up.snr_target)
                    for diff in local[sel] - received[sel]])
            else:
                sigma2 = np.full(n_clients, rp_up.uplink_variance)[selected]
            up_noise = _scaled_noise(next(up_blocks)[selected], sigma2)
            uploads = uplink_transmit(local[sel], config.mode, w,
                                      received[sel], up_noise)
            w_next = aggregate(uploads)
        else:
            payload = local[sel] if config.mode == "MT" \
                else local[sel] - received[sel]
            agg, info = analog_uplink_aggregate(
                payload, power=rp_up.rho_ul, rng=fade_ul_rng,
                copies=rp_up.div_ul)
            fade_retries += info["retries"]
            w_next = agg if config.mode == "MT" else w + agg
            sigma2 = 1.0 / (rp_up.rho_ul * rp_up.div_ul)

        if record_virtual:
            mean_up_noises.append(up_noise.mean(axis=0) if effective
                                  else agg - payload.mean(axis=0))
            mean_down_noises.append((received - w).mean(axis=0))
            virtual.append(VirtualSequences(
                round_index=t, v_bar=local.mean(axis=0),
                u_bar=local[sel].mean(axis=0), p_bar=w_next.copy(),
                w_bar=None))

        # Realized global SNR from the simulation's ground truth.
        signal_sum = local[sel].sum(axis=0)
        noise_sum = n_participants * w_next - signal_sum
        snr = measure_global_snr(signal_sum, noise_sum, config.mode)

        energy_ul += rp_up.energy_ul
        energy_dl += rp_down.energy_dl
        sq = squared_distance(w_next, w_star) \
            if np.all(np.isfinite(w_next)) else math.inf
        zeta2 = np.full(n_clients, rp_down.downlink_variance)[selected]
        traces.append(RoundTrace(
            t=t,
            sq_dist=sq,
            loss=task.global_loss(w_next),
            eta=lr.eta((t - 1) * epochs + 1),
            sigma2_ul=float(np.mean(sigma2)),
            zeta2_dl=float(np.mean(zeta2)),
            rho_ul=rp_up.rho_ul,
            rho_dl=rp_down.rho_dl,
            div_ul=rp_up.div_ul,
            div_dl=rp_down.div_dl,
            snr_global=snr.ratio,
            energy_cum=energy_ul + energy_dl,
        ))

        if sq > guard:
            raise DivergenceError(
                f"round {t}: squared distance {sq:.3e} exceeded the guard "
                f"{guard:.3e}", traces=traces)
        w = w_next

    if record_virtual:
        # Each w_bar adds the next broadcast's mean noise; the last one's is
        # a final virtual broadcast, round T+1's.
        _, idx_down = _schedule_indices(config, rounds + 1)
        tail, _ = broadcast(w, policy.round_params(idx_down), all_clients)
        virtual = [replace(v, w_bar=v.p_bar + noise) for v, noise in zip(
            virtual, mean_down_noises[1:] + [(tail - w).mean(axis=0)])]

    max_iterate_dist = math.sqrt(max_iterate_sq)
    diagnostics = {
        "max_iterate_distance": max_iterate_dist,
        "trajectory_radius": radius,
        "radius_exceeded": max_iterate_dist > radius,
        "fade_retries": fade_retries,
    }
    return RunResult(
        traces=traces,
        constants=constants,
        lr=lr,
        sampled=sampled_sets,
        virtual=virtual,
        mean_uplink_noise=mean_up_noises,
        mean_downlink_noise=mean_down_noises,
        initial_model=w0,
        final_model=w,
        policy_name=getattr(policy, "name", config.policy_name),
        policy_params=policy.params(),
        energy_uplink=energy_ul,
        energy_downlink=energy_dl,
        diagnostics=diagnostics,
    )
