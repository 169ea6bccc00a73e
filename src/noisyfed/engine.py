"""The federated-averaging-over-noisy-channels state machine.

One run executes, per round: uniform client sampling, noisy downlink broadcast
of the current global model, local mini-batch SGD at each recipient, noisy
uplink of either the full local model (``MT``) or its differential against the
model the client just received (``MDT``), and server-side averaging.  The
recipients of a round are one ``(n, d)`` array, trained together.  The round
loop only advances that state, checks the divergence guard and records what
the observations need; the trace rows and the iterate-ball maximum are built
from those records in bulk, with each round's own arithmetic.

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
                      analog_uplink_aggregate, sample_noise)
from .errors import AggregationError, ConfigError, DivergenceError, PolicyError
from .policies import build_policy, LearningRateSchedule, mdt_uplink_variance
from .seeding import (DOMAIN_BATCH, DOMAIN_DOWNLINK, DOMAIN_FADE_DOWNLINK,
                      DOMAIN_FADE_UPLINK, DOMAIN_SAMPLING, DOMAIN_UPLINK,
                      stream)
from .tasks import derive_constants
from .vectors import squared_distance

#: Rounds of effective-noise and batch blocks read per generator call.
ROUND_CHUNK = 32
#: Rounds whose trace rows and iterate-ball maximum are built in one pass;
#: few, so that the models they buffer stay small.
TRACE_BLOCK = 8

TRACE_COLUMNS = ("t", "sq_dist", "loss", "eta", "sigma2_ul", "zeta2_dl",
                 "rho_ul", "rho_dl", "div_ul", "div_dl", "snr_global",
                 "energy_cum")

#: Types of a policy variance that holds one value per client.
PER_CLIENT = (list, tuple, np.ndarray)

TRANSMISSION_MODES = ("MT", "MDT")
CHANNEL_LAYERS = ("effective_noise", "analog_physical")
SCHEDULE_TIMELINES = ("round", "iteration")


@dataclass(frozen=True, slots=True)
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
    """Yield the ``(n, d)`` iterate after each step of :func:`local_train`;
    one array, updated in place."""
    clients = np.asarray(clients)
    rows = clients if batches is None else (clients[None, :, None], batches)
    feats, targets = task.features[rows], task.targets[rows]
    feats_t = feats.swapaxes(-1, -2)
    w = np.array(w_start, dtype=np.float64, copy=True)
    n, size, dim = feats.shape[-3:]
    predicted, residual = np.empty((n, size, 1)), np.empty((n, size))
    grad3, (grad, ridge_w) = np.empty((n, dim, 1)), np.empty((2, n, dim))
    w3, residual3 = w[:, :, None], residual[:, :, None]
    for j, eta in enumerate(etas):
        a, a_t, y = (feats, feats_t, targets) if batches is None \
            else (feats[j], feats_t[j], targets[j])
        np.matmul(a, w3, out=predicted)
        np.subtract(predicted[:, :, 0], y, out=residual)
        np.matmul(a_t, residual3, out=grad3)
        np.divide(grad3[:, :, 0], size, out=grad)
        np.add(grad, np.multiply(task.ridge, w, out=ridge_w), out=grad)
        np.subtract(w, np.multiply(eta, grad, out=grad), out=w)
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
    # Bit for bit uploads.mean(axis=0), without its per-call overhead.
    total = np.add.reduce(uploads, axis=0)
    total /= len(uploads)
    return total


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
    """Unit-variance rows ``unit`` scaled to variance ``variances``: one
    scalar for every row, or one per row."""
    per_row = isinstance(variances, PER_CLIENT)
    if (np.min(variances) if per_row else variances) < 0:
        raise PolicyError("noise variance must be non-negative")
    if per_row:
        return unit * np.sqrt(np.asarray(variances, dtype=np.float64))[:, None]
    return unit * math.sqrt(variances)


def _rows(variance, rows):
    """A policy's variance for the given clients; a scalar stays one."""
    return np.asarray(variance, dtype=np.float64)[rows] \
        if isinstance(variance, PER_CLIENT) else variance


def _round_means(variances, n):
    """``float(np.mean(np.full(n, v)))`` for every round's variance ``v``, a
    scalar or an ``(n,)`` array, as one ``(T, n)`` mean: the same sums."""
    block = np.array(variances, dtype=np.float64)
    if block.ndim == 1:
        block = np.repeat(block[:, None], n, axis=1)
    return block.mean(axis=1).tolist()


def downlink_broadcast(w_global, unit, variances):
    """The global model as received through each row of unit-variance noise
    ``unit``, scaled as :func:`_scaled_noise` does (0: an exact copy)."""
    return w_global + _scaled_noise(unit, variances)


def _trace_rows(records, up_count, n_participants, etas):
    """The :class:`RoundTrace` rows of a block of rounds that :func:`run`
    recorded.  Every cell is what the round's own arithmetic gave, as a
    Python ``int`` or ``float``."""
    ts, params, sampled, up_variances, sq_dists, losses, signals, models, \
        energies = zip(*records)
    sigma2 = _round_means(up_variances, up_count)
    zeta2 = _round_means([_rows(down.downlink_variance, rows)
                          for (_, down), rows in zip(params, sampled)],
                         n_participants)
    signals = np.array(signals)
    noises = n_participants * np.array(models) - signals
    rows = []
    for i, ((up, down), signal, noise) in enumerate(zip(params, signals,
                                                          noises)):
        noise_power = float(noise @ noise)
        rows.append(RoundTrace(
            t=ts[i], sq_dist=sq_dists[i], loss=losses[i], eta=etas[ts[i] - 1],
            sigma2_ul=sigma2[i], zeta2_dl=zeta2[i], rho_ul=up.rho_ul,
            rho_dl=down.rho_dl, div_ul=up.div_ul, div_dl=down.div_dl,
            snr_global=math.inf if noise_power == 0.0
            else float(signal @ signal) / noise_power,
            energy_cum=energies[i]))
    return rows


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

    def pick(block, rows, axis=0):  # no copy when every client is a row
        return block if rows is all_clients else np.take(block, rows, axis)

    def broadcast(w, rp, rows):     # received rows, deep-fade retries
        if effective:
            return downlink_broadcast(w, pick(next(down_blocks), rows),
                                      _rows(rp.downlink_variance, rows)), 0
        received, info = analog_downlink_receive(
            w, power=rp.rho_dl, rng=fade_dl_rng, copies=rp.div_dl,
            receivers=n_clients)
        return pick(received, rows), info["retries"]

    # Divergence guard; floored so a start at the optimum still tolerates noise.
    guard = config.divergence_factor * max(initial_sq, 1.0)

    # The loop advances the state and records what each round's trace row
    # is built from: t, (uplink, downlink) parameters, sampled clients,
    # uplink variance (one for the analog uplink's combined noise), squared
    # distance, loss, sum of the sampled local models, aggregate, cumulative
    # energy.  Each block of TRACE_BLOCK rounds becomes trace rows, and its
    # received and local models (the ball) the iterate-ball maximum.
    w = w0.copy()
    traces = []
    records = []
    trace_rows = partial(_trace_rows, records,
                         n_participants if effective else 1, n_participants,
                         etas[::epochs])
    sampled_sets = []
    virtual = []                # w_bar filled in after the last round
    mean_up_noises = []
    mean_down_noises = []
    energy_ul = 0.0
    energy_dl = 0.0
    fade_retries = 0
    n_rows = n_clients if train_all else n_participants
    span = min(TRACE_BLOCK, rounds)
    ball = np.empty((span, 2 * n_rows, dim))
    max_iterate_sq = initial_sq

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

        # (2) Local mini-batch SGD.  The batch block is not kept, since a
        # view of it would hold its chunk through the next chunk's draw.
        local = local_train(
            received, task, recipients, None if batch_blocks is None
            else pick(next(batch_blocks), recipients, axis=1),
            etas[(t - 1) * epochs:t * epochs])
        k = (t - 1) % span
        ball[k, :n_rows] = received
        ball[k, n_rows:] = local

        # (3) Uplink transmission and (4) aggregation.
        if effective:
            if rp_up.uplink_variance is None:
                sigma2 = np.array([
                    mdt_uplink_variance(diff, rp_up.snr_target)
                    for diff in local[sel] - received[sel]])
            else:
                sigma2 = _rows(rp_up.uplink_variance, selected)
            up_noise = _scaled_noise(pick(next(up_blocks), selected), sigma2)
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

        diff = w_next - w_star
        sq = float(diff @ diff)
        if math.isnan(sq):      # still trips the guard
            sq = math.inf
        energy_ul += rp_up.energy_ul
        energy_dl += rp_down.energy_dl
        records.append((t, (rp_up, rp_down), selected, sigma2, sq,
                        task.global_loss(w_next), local[sel].sum(axis=0),
                        w_next, energy_ul + energy_dl))
        if k == span - 1 or t == rounds or sq > guard:
            visited = ball[:k + 1]
            visited -= w_star
            np.multiply(visited, visited, out=visited)
            max_iterate_sq = max(max_iterate_sq,
                                 float(np.max(np.sum(visited, axis=-1))))
            traces += trace_rows()
            records.clear()
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
    diagnostics = {"max_iterate_distance": max_iterate_dist,
                   "trajectory_radius": radius,
                   "radius_exceeded": max_iterate_dist > radius,
                   "fade_retries": fade_retries}
    return RunResult(
        traces=traces, constants=constants, lr=lr,
        sampled=sampled_sets, virtual=virtual,
        mean_uplink_noise=mean_up_noises,
        mean_downlink_noise=mean_down_noises, initial_model=w0,
        final_model=w, policy_name=getattr(policy, "name", config.policy_name),
        policy_params=policy.params(), energy_uplink=energy_ul,
        energy_downlink=energy_dl, diagnostics=diagnostics)
