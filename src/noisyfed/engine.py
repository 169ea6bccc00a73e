"""The federated-averaging-over-noisy-channels state machine.

One run executes, per round: uniform client sampling, noisy downlink broadcast
of the current global model, local mini-batch SGD at each recipient, noisy
uplink of either the full local model (``MT``) or its differential against the
model the client just received (``MDT``), and server-side averaging.  The
recipients of a round are one ``(n, d)`` array, trained together.  Rounds run
in blocks of ``BLOCK``: what a block needs that does not depend on the iterate
is prepared first, its rounds only advance the state and check the divergence
guard, and its trace rows and iterate-ball maximum are built at its end, each
row from its own round alone, so the block size changes no output.

Randomness follows stream layout 6 (:mod:`noisyfed.seeding`), which draws what
layout 5 drew and only rounds local SGD and the loss and SNR columns
differently: round t reads the t-th block of its domain's stream, with a row
for each of the N clients, sampled or not.  Effective noise is a unit-variance
``(N, d)`` block per direction, scaled row by row; the batches are ``B``
uniforms per (local step, client), turned into indices by
:func:`floyd_sample`; the analog layer and client sampling draw round by
round.  So training all clients but aggregating the sampled ones gives the
same trajectory as sampling first.

The learning rate is indexed on the per-iteration timeline (round t covers
iterations (t-1)E+1 .. tE); noise and power schedules are indexed per round by
default, switchable to the aggregation-instant iteration index.
"""

import math
import operator
from collections import namedtuple
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

#: Rounds prepared, and later traced, together; few, so that what a block
#: buffers stays small.
BLOCK = 8

TRACE_COLUMNS = ("t", "sq_dist", "loss", "eta", "sigma2_ul", "zeta2_dl",
                 "rho_ul", "rho_dl", "div_ul", "div_dl", "snr_global",
                 "energy_cum")

_trace_row = operator.attrgetter(*TRACE_COLUMNS)

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
        return _trace_row(self)


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
    picks = np.empty((size,) + uniforms.shape[:-1], dtype=np.intp)
    for i, j in enumerate(range(population - size, population)):
        np.multiply(uniforms[..., i], j + 1, out=picks[i], casting="unsafe")
        if i:
            np.copyto(picks[i], j, where=(picks[:i] == picks[i]).any(axis=0))
    return np.moveaxis(picks, 0, -1)


#: One round's local SGD as :func:`local_steps` prepares it: the client of
#: each row and, per step, the batch features ``(n, B, d)`` and targets, both
#: scaled by the root of the step's rate over the batch size, the rate left to
#: apply (None once the scaled data hold it) and ``1 - eta * ridge``.
LocalSteps = namedtuple("LocalSteps", "clients feats targets rates keeps")


def local_steps(task, clients, batches, etas, out=None):
    """Prepare one step of mini-batch SGD per rate in ``etas`` for the
    clients of the rows (which may repeat), for :func:`local_train`.

    ``batches`` holds each step's sample indices, ``(len(etas), n, B)``, or
    is None for exact full-batch gradients, whose data every step shares.
    With a leading round axis on all three, ``(R, n)``, ``(R, E, n, B)`` and
    ``(R, E)``, the rounds are gathered in one pass into a list of one
    :class:`LocalSteps` each.  ``out``, an array of the gathered features'
    shape with R rounds or more, takes them instead of a new one.
    """
    clients, etas = np.asarray(clients), np.asarray(etas, dtype=np.float64)
    per_round = etas.ndim == 2
    if not per_round:
        clients, etas = clients[None], etas[None]
        batches = None if batches is None else np.asarray(batches)[None]
    samples, dim = task.features.shape[1:]
    rows = clients[..., None] * samples + np.arange(samples) \
        if batches is None else clients[:, None, :, None] * samples + batches
    # One flat take costs less than indexing the (N, D, d) stack.
    feats = task.features.reshape(-1, dim).take(
        rows, axis=0, out=None if out is None else out[:len(etas)])
    targets = task.targets.reshape(-1).take(rows)
    if batches is None:     # shared by every step; the rate is applied apart
        scale, rates = np.sqrt(1.0 / samples), etas.tolist()
    else:
        scale = np.sqrt(etas / rows.shape[-1])[..., None, None]
        rates = [[None] * etas.shape[1]] * len(etas)
    targets *= scale
    feats *= scale[..., None]
    if batches is None:
        feats, targets = (np.broadcast_to(a[:, None], etas.shape + a.shape[1:])
                          for a in (feats, targets))
    steps = list(map(LocalSteps, clients, feats, targets, rates,
                     (1.0 - etas * task.ridge).tolist()))
    return steps if per_round else steps[0]


def _sgd_steps(w_start, steps):
    """Yield the ``(n, d)`` iterate after each of the prepared ``steps``;
    one array, updated in place: ``w * keep - (a @ w - y) @ a`` with ``a``
    and ``y`` scaled by the root of the step's rate over the batch size."""
    w = np.array(w_start, dtype=np.float64, copy=True)
    n, size, dim = steps.feats.shape[-3:]
    predicted, residual = np.empty((n, size, 1)), np.empty((n, 1, size))
    grad = np.empty((n, 1, dim))
    w3, predicted2, residual2, grad2 = \
        w[:, :, None], predicted[:, :, 0], residual[:, 0], grad[:, 0]
    for a, y, rate, keep in zip(*steps[1:]):
        np.matmul(a, w3, out=predicted)
        np.subtract(predicted2, y, out=residual2)
        np.matmul(residual, a, out=grad)
        if rate is not None:
            grad *= rate
        w *= keep
        w -= grad2
        yield w


def local_train(w_start, steps):
    """Run the prepared :class:`LocalSteps` from the ``(n, d)`` array
    ``w_start``, row i starting ``steps.clients[i]``.

    A :class:`DivergenceError` names the first row's client, in the order of
    ``steps.clients``, whose iterate became non-finite, and its first such
    step.
    """
    w = w_start
    for w in _sgd_steps(w_start, steps):
        pass
    if np.isfinite(w).all():
        return w
    # Non-finite is absorbing, so the first bad row at the end is the one to
    # name; replay the steps to find its first non-finite one.
    i = int(np.argmax(~np.isfinite(w).all(axis=1)))
    step = next(j for j, w in enumerate(_sgd_steps(w_start, steps), 1)
                if not np.isfinite(w[i]).all())
    raise DivergenceError(f"client {steps.clients[i]}: non-finite iterate "
                          f"at local step {step}")


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


def _scaled_noise(unit, variances):
    """Unit-variance rows ``unit``, ``(n, d)`` or a block of rounds
    ``(R, n, d)``, scaled to ``variances``: per round one scalar for every
    row or one per row."""
    stds = np.array(variances, dtype=np.float64)
    if stds.min() < 0:
        raise PolicyError("noise variance must be non-negative")
    np.sqrt(stds, out=stds)
    return unit * stds.reshape(unit.shape[:-2] + (-1, 1))


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
    return (np.add.reduce(block, axis=1) / n).tolist()   # mean, bit for bit


def downlink_broadcast(w_global, unit, variances):
    """The global model as received through each row of unit-variance noise
    ``unit``, scaled as :func:`_scaled_noise` does (0: an exact copy)."""
    return w_global + _scaled_noise(unit, variances)


def _trace_rows(task, records, up_count, n_participants, etas):
    """The :class:`RoundTrace` rows of a block of rounds that :func:`run`
    recorded, as Python ``int`` and ``float`` cells.  The loss and SNR
    columns are computed for the whole block, each row from its own round
    alone."""
    ts, params, sampled, up_variances, sq_dists, signals, models, \
        energies = zip(*records)
    sigma2 = _round_means(up_variances, up_count)
    zeta2 = _round_means([_rows(down.downlink_variance, rows)
                          for (_, down), rows in zip(params, sampled)],
                         n_participants)
    signals, models = np.array(signals), np.array(models)
    losses = task.global_losses(models).tolist()
    pairs = np.stack([signals, n_participants * models - signals])
    # Each row's power by its own product, whatever the block's size.
    powers = np.matmul(pairs[:, :, None, :], pairs[..., None])[..., 0, 0]
    rows = []
    for i, ((up, down), signal_power, noise_power) in enumerate(zip(
            params, *powers.tolist())):
        rows.append(RoundTrace(
            t=ts[i], sq_dist=sq_dists[i], loss=losses[i],
            eta=float(etas[ts[i] - 1, 0]),
            sigma2_ul=sigma2[i], zeta2_dl=zeta2[i], rho_ul=up.rho_ul,
            rho_dl=down.rho_dl, div_ul=up.div_ul, div_dl=down.div_dl,
            snr_global=math.inf if noise_power == 0.0
            else signal_power / noise_power,
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
    everyone = n_participants == n_clients
    all_clients = np.arange(n_clients)
    rounds = config.rounds
    etas = lr.etas(rounds * epochs).reshape(rounds, epochs)

    # One generator per domain and run; only the domains the run uses.
    if not everyone:
        sampling_rng = stream(seed, DOMAIN_SAMPLING)
    if effective:
        unit = partial(sample_noise, NoiseSpec(1.0, config.distribution))
        down_rng = stream(seed, DOMAIN_DOWNLINK)
        up_rng = stream(seed, DOMAIN_UPLINK)
    else:
        fade_dl_rng = stream(seed, DOMAIN_FADE_DOWNLINK)
        fade_ul_rng = stream(seed, DOMAIN_FADE_UPLINK)
    batch_rng = None if batch == task.samples_per_client \
        else stream(seed, DOMAIN_BATCH)

    def analog_broadcast(w, rp, rows):  # received rows, deep-fade retries
        received, info = analog_downlink_receive(
            w, power=rp.rho_dl, rng=fade_dl_rng, copies=rp.div_dl,
            receivers=n_clients, distance=getattr(policy, "distance", 1.0),
            pathloss=getattr(policy, "pathloss", 2.0))
        return received if rows is None else received[rows], info["retries"]

    def pick(block, rows):          # each round's rows; None: all, no copy
        if rows is None:
            return block
        index = np.expand_dims(rows, tuple(range(1, block.ndim - 2)) + (-1,))
        return np.take_along_axis(block, index, -2)

    # Divergence guard; floored so a start at the optimum still tolerates noise.
    guard = config.divergence_factor * max(initial_sq, 1.0)

    # Rounds run in blocks of BLOCK.  What a block needs that does not
    # depend on the iterate is prepared first: round parameters, client
    # selections, scaled noise and local-SGD inputs.  Its rounds then only
    # advance the state and record what their trace rows are built from at
    # the block's end: t, (uplink, downlink) parameters, sampled clients,
    # uplink variance (one for the analog uplink's combined noise), squared
    # distance, sum of the sampled local models, aggregate and cumulative
    # energy.  The received and local models (the ball) give the
    # iterate-ball maximum.
    w = w0.copy()
    traces, sampled_sets, virtual, mean_up_noises, mean_down_noises = \
        [], [], [], [], []
    energy_ul = energy_dl = 0.0
    fade_retries = 0
    n_rows = n_clients if train_all else n_participants
    span = min(BLOCK, rounds)
    ball = np.empty((span, 2 * n_rows, dim))
    # The features of a block's local steps.
    step_buffer = np.empty((span,) + ((n_rows, task.samples_per_client)
                                      if batch_rng is None
                                      else (epochs, n_rows, batch)) + (dim,))
    max_iterate_sq = initial_sq
    sq = 0.0

    for start in range(0, rounds, BLOCK):
        ts = range(start + 1, min(start + BLOCK, rounds) + 1)
        params = []
        for t in ts:
            idx_up, idx_down = _schedule_indices(config, t)
            rp_up = policy.round_params(idx_up)
            params.append((rp_up, rp_up if idx_down == idx_up
                           else policy.round_params(idx_down)))
        # Full participation selects everyone; the sampling stream is
        # separate, so not drawing it changes no other draw.
        selected = [all_clients if everyone else
                    sample_clients(n_clients, n_participants, sampling_rng)
                    for _ in ts]
        sampled_sets += selected
        picked = None if everyone else np.array(selected)
        recipients = None if train_all else picked
        rows = np.broadcast_to(all_clients, (len(ts), n_clients)) \
            if recipients is None else recipients
        shape = (len(ts), n_clients, dim)
        if effective:
            down_noise = _scaled_noise(
                pick(unit(shape, down_rng), recipients),
                [_rows(down.downlink_variance, r)
                 for (_, down), r in zip(params, rows)])
            up_noise = pick(unit(shape, up_rng), picked)
            mdt = params[0][0].uplink_variance is None
            if not mdt:     # else scaled round by round, by the models
                up_variances = [_rows(up.uplink_variance, chosen)
                                for (up, _), chosen in zip(params, selected)]
                up_noise = _scaled_noise(up_noise, up_variances)
        batches = None if batch_rng is None else pick(floyd_sample(
            batch_rng.random((len(ts), epochs, n_clients, batch)),
            task.samples_per_client), recipients)
        steps = local_steps(task, rows, batches, etas[start:ts[-1]],
                            step_buffer)

        records = []
        for i, t in enumerate(ts):
            rp_up, rp_down = params[i]
            # Rows of the sampled clients among the recipients.
            sel = selected[i] if train_all and not everyone else slice(None)

            # (1) Downlink broadcast, received into the ball.
            received = ball[i, :n_rows]
            if effective:
                np.add(w, down_noise[i], out=received)
            else:
                received[:], retries = analog_broadcast(
                    w, rp_down, None if recipients is None else recipients[i])
                fade_retries += retries

            # (2) Local mini-batch SGD.
            local = ball[i, n_rows:] = local_train(received, steps[i])
            sent = local[sel]

            # (3) Uplink transmission and (4) aggregation.
            if effective:
                noise = up_noise[i]
                if mdt:
                    sigma2 = np.array([
                        mdt_uplink_variance(diff, rp_up.snr_target)
                        for diff in sent - received[sel]])
                    noise = _scaled_noise(noise, sigma2)
                else:
                    sigma2 = up_variances[i]
                w_next = aggregate(uplink_transmit(sent, config.mode, w,
                                                   received[sel], noise))
            else:
                payload = sent if config.mode == "MT" \
                    else sent - received[sel]
                agg, info = analog_uplink_aggregate(
                    payload, power=rp_up.rho_ul, rng=fade_ul_rng,
                    copies=rp_up.div_ul)
                fade_retries += info["retries"]
                w_next = agg if config.mode == "MT" else w + agg
                sigma2 = 1.0 / (rp_up.rho_ul * rp_up.div_ul)

            if record_virtual:
                mean_up_noises.append(noise.mean(axis=0) if effective
                                      else agg - payload.mean(axis=0))
                mean_down_noises.append((received - w).mean(axis=0))
                virtual.append(VirtualSequences(
                    round_index=t, v_bar=local.mean(axis=0),
                    u_bar=sent.mean(axis=0), p_bar=w_next.copy(),
                    w_bar=None))

            diff = w_next - w_star
            sq = float(diff @ diff)
            if math.isnan(sq):      # still trips the guard
                sq = math.inf
            energy_ul += rp_up.energy_ul
            energy_dl += rp_down.energy_dl
            records.append((t, params[i], selected[i], sigma2, sq,
                            sent.sum(axis=0), w_next, energy_ul + energy_dl))
            if sq > guard:
                break
            w = w_next

        visited = ball[:len(records)]
        visited -= w_star
        np.multiply(visited, visited, out=visited)
        max_iterate_sq = max(max_iterate_sq,
                             float(np.max(np.sum(visited, axis=-1))))
        traces += _trace_rows(task, records, n_participants if effective
                              else 1, n_participants, etas)
        if sq > guard:
            raise DivergenceError(
                f"round {t}: squared distance {sq:.3e} exceeded the guard "
                f"{guard:.3e}", traces=traces)

    if record_virtual:
        # Each w_bar adds the next broadcast's mean noise; the last one's is
        # a final virtual broadcast, round T+1's.
        _, idx_down = _schedule_indices(config, rounds + 1)
        rp_tail = policy.round_params(idx_down)
        tail = downlink_broadcast(w, unit((n_clients, dim), down_rng),
                                  rp_tail.downlink_variance) if effective \
            else analog_broadcast(w, rp_tail, None)[0]
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
