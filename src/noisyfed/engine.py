"""The federated-averaging-over-noisy-channels state machine.

One run executes, per round: uniform client sampling, noisy downlink broadcast
of the current global model, local mini-batch SGD at each sampled client,
noisy uplink of either the full local model (``MT``) or its differential
against the model the client just received (``MDT``), and server-side
averaging.  One round loop serves both channel layers, each behind one class
that holds its streams and noise: :class:`EffectiveNoise` and
:class:`Analog`.  A round's sampled clients are one ``(K, d)`` array, trained
together.  Rounds run in blocks of ``BLOCK`` (32): what a block needs that
does not depend on the iterate is prepared first, local SGD's inputs included
(gathered into buffers allocated once per run), its rounds only advance the
state and check the divergence guard, and its trace rows (named tuples) and
iterate-ball maximum are built at its end, each row from its own round
alone, so the block size changes no output.  The guard and the trajectory
ball of the gradient bound are fixed, not run options.

Every run starts from the zero model.  Randomness follows stream layout 7
(:mod:`noisyfed.seeding`): round t reads the t-th block of its domain's
stream, with a row for each of the N clients, and a round uses the rows of
its sampled clients.  Effective noise is a unit-variance ``(N, d)`` block per
direction, scaled row by row; the batches are ``B`` uniforms per (local step,
client), turned into indices by :func:`floyd_sample`; the analog layer and
client sampling draw round by round.  As rows are keyed by client, a round's
draws do not depend on which clients were sampled.

The learning rate is indexed on the per-iteration timeline (round t covers
iterations (t-1)E+1 .. tE); noise and power schedules are indexed by round,
one :class:`RoundPolicy` serving both directions of a round.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .channel import (NOISE_DISTRIBUTIONS, NoiseSpec, analog_downlink_receive,
                      analog_uplink_aggregate, sample_noise)
from .errors import AggregationError, ConfigError, DivergenceError, PolicyError
from .policies import PRESETS, Policy, build_policy, mdt_uplink_variance
from .seeding import (DOMAIN_BATCH, DOMAIN_DOWNLINK, DOMAIN_FADE_DOWNLINK,
                      DOMAIN_FADE_UPLINK, DOMAIN_SAMPLING, DOMAIN_UPLINK,
                      stream)
from .tasks import derive_constants
from .vectors import squared_distance

#: Rounds prepared, and later traced, together; few enough that a block's
#: gathered batch features stay in cache.
BLOCK = 32

TRANSMISSION_MODES = ("MT", "MDT")
CHANNEL_LAYERS = ("effective_noise", "analog_physical")

#: The radius of the gradient bound's ball about the optimum over
#: ``max(||w*||, 1)``, and the divergence guard over ``max(||w*||^2, 1)``.
TRAJECTORY_RADIUS_FACTOR = 2.0
DIVERGENCE_FACTOR = 1e6


class RoundTrace(NamedTuple):
    """Observables recorded after each aggregation round, in the order of
    the trace file's columns."""

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
        return tuple(self)


TRACE_COLUMNS = RoundTrace._fields


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
        preset = PRESETS.get(self.policy_name)
        if preset is not None and preset.mode not in (None, self.mode):
            raise ConfigError(f"policy {self.policy_name!r} needs mode "
                              f"{preset.mode!r}")
        if self.channel == "analog_physical" \
                and self.policy_name == "mdt_constant_snr":
            # The analog uplink would send the SNR target as a transmit power.
            raise ConfigError("policy 'mdt_constant_snr' needs channel "
                              "'effective_noise', not 'analog_physical'")


@dataclass
class RunResult:
    """Everything observable from one run: a trace row per round, the
    models, the energies spent and the trajectory's diagnostics."""

    traces: list
    constants: object
    final_model: np.ndarray
    policy: Policy
    energy_uplink: float
    energy_downlink: float
    diagnostics: dict

    @property
    def sq_dists(self):
        return np.array([tr.sq_dist for tr in self.traces])


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
#: apply (None once the scaled data hold it) and ``1 - eta * ridge``; and the
#: work buffers a step writes, shared by every round.
LocalSteps = namedtuple("LocalSteps",
                        "clients feats targets rates keeps work")

#: What :func:`local_steps` writes: the gathered features and targets of up to
#: ``len(feats)`` rounds and a step's ``(n, B)`` residual and ``(n, d)``
#: gradient.  :func:`run` allocates them once.
StepBuffers = namedtuple("StepBuffers", "feats targets work")


def step_buffers(rounds, shape, dim):
    """:class:`StepBuffers` for ``rounds`` rounds whose gathered sample rows
    have ``shape`` per round: ``(E, n, B)`` mini-batches, or ``(n, D)`` for
    full batches."""
    n, size = shape[-2:]
    return StepBuffers(np.empty((rounds,) + shape + (dim,)),
                       np.empty((rounds,) + shape),
                       (np.empty((n, size)), np.empty((n, dim))))


def _check_range(index, bound, name):
    if index.size and (index.min() < 0 or index.max() >= bound):
        raise IndexError(f"{name} out of range [0, {bound})")


def local_steps(task, clients, batches, etas, out=None):
    """Prepare one step of mini-batch SGD per rate in ``etas`` for the
    clients of the rows (which may repeat), for :func:`local_train`.

    ``batches`` holds each step's sample indices, ``(len(etas), n, B)``, or
    is None for exact full-batch gradients, whose data every step shares.
    With a leading round axis on all three, ``(R, n)``, ``(R, E, n, B)`` and
    ``(R, E)``, the rounds are gathered in one pass into a list of one
    :class:`LocalSteps` each.  ``out``, :class:`StepBuffers` for R rounds or
    more, takes the gathered data and the work instead of new arrays.  A
    client or sample index out of range is an :class:`IndexError`.
    """
    clients, etas = np.asarray(clients), np.asarray(etas, dtype=np.float64)
    per_round = etas.ndim == 2
    if not per_round:
        clients, etas = clients[None], etas[None]
        batches = None if batches is None else np.asarray(batches)[None]
    n_clients, samples, dim = task.features.shape
    _check_range(clients, n_clients, "client")
    if batches is None:
        rows = clients[..., None] * samples + np.arange(samples)
    else:
        _check_range(batches, samples, "batch index")
        rows = clients[:, None, :, None] * samples + batches
    if out is None:
        out = step_buffers(len(etas), rows.shape[1:], dim)
    # One flat take costs less than indexing the (N, D, d) stack.  The
    # indices are checked above: in its default "raise" mode, take gathers
    # into a temporary and copies that into ``out``.
    feats = task.features.reshape(-1, dim).take(
        rows, axis=0, out=out.feats[:len(etas)], mode="clip")
    targets = task.targets.reshape(-1).take(
        rows, out=out.targets[:len(etas)], mode="clip")
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
                     (1.0 - etas * task.ridge).tolist(), repeat(out.work)))
    return steps if per_round else steps[0]


def _sgd(w_start, steps, watch=None):
    """The ``(n, d)`` iterate after the prepared ``steps``, each one
    ``w * keep - (a @ w - y) @ a`` in place (``a``, ``y`` scaled by the root
    of the step's rate over the batch size); with ``watch``, a row, instead
    the first step (from 1) that leaves that row non-finite."""
    w = np.array(w_start, dtype=np.float64, copy=True)
    residual, grad = steps.work
    for step, (a, y, rate, keep) in enumerate(zip(*steps[1:5]), 1):
        np.matvec(a, w, out=residual)
        residual -= y
        np.vecmat(residual, a, out=grad)
        if rate is not None:
            grad *= rate
        w *= keep
        w -= grad
        if watch is not None and not np.isfinite(w[watch]).all():
            return step
    return w


def local_train(w_start, steps):
    """Run the prepared :class:`LocalSteps` from the ``(n, d)`` array
    ``w_start``, row i starting ``steps.clients[i]``.

    A :class:`DivergenceError` names the first row's client, in the order of
    ``steps.clients``, whose iterate became non-finite, and its first such
    step.
    """
    w = _sgd(w_start, steps)
    if np.isfinite(w).all():
        return w
    # Non-finite is absorbing, so the first bad row at the end is the one to
    # name; replay the steps to find its first non-finite one.
    i = int(np.argmax(~np.isfinite(w).all(axis=1)))
    raise DivergenceError(f"client {steps.clients[i]}: non-finite iterate "
                          f"at local step {_sgd(w_start, steps, watch=i)}")


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


def _scaled_noise(unit, variances):
    """Unit-variance rows ``unit``, ``(n, d)`` or a block of rounds
    ``(R, n, d)``, scaled to ``variances``: per round one scalar for every
    row or one per row."""
    stds = np.array(variances, dtype=np.float64)
    if stds.min() < 0:
        raise PolicyError("noise variance must be non-negative")
    np.sqrt(stds, out=stds)
    return unit * stds.reshape(unit.shape[:-2] + (-1, 1))


def _pick(block, rows):
    """Each round's sorted ``rows`` ``(R, n)`` of a block with a row per
    client on its second-to-last axis; all of them without a copy."""
    if rows.shape[-1] == block.shape[-2]:
        return block
    index = np.expand_dims(rows, tuple(range(1, block.ndim - 2)) + (-1,))
    return np.take_along_axis(block, index, -2)


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
    recorded, as Python ``int`` and ``float`` cells; ``etas`` lists each
    round's first rate.  The loss and SNR columns are computed for the whole
    block, each row from its own round alone."""
    ts, params, up_variances, sq_dists, signals, models, energies = \
        zip(*records)
    sigma2 = _round_means(up_variances, up_count)
    zeta2 = _round_means([rp.downlink_variance for rp in params],
                         n_participants)
    signals, models = np.array(signals), np.array(models)
    losses = task.global_losses(models).tolist()
    pairs = np.stack([signals, n_participants * models - signals])
    # Each row's power by its own product, whatever the block's size.
    powers = np.matmul(pairs[:, :, None, :], pairs[..., None])[..., 0, 0]
    snrs = [math.inf if noise == 0.0 else signal / noise
            for signal, noise in zip(*powers.tolist())]
    return [RoundTrace(t, sq_dist, loss, etas[t - 1], sigma2_ul, zeta2_dl,
                       rp.rho_ul, rp.rho_dl, rp.div_ul, rp.div_dl, snr, energy)
            for t, sq_dist, loss, sigma2_ul, zeta2_dl, rp, snr, energy
            in zip(ts, sq_dists, losses, sigma2, zeta2, params, snrs,
                   energies)]


# A channel layer: per block, ``prepare(params, sampled)`` takes each round's
# :class:`RoundPolicy` and sampled clients; per round i, ``downlink(i, w, rp,
# rows, out)`` writes what ``rows`` receive into ``out``, ``uplink(i, rp, w,
# sent, received)`` returns the next global model and the uplink variance,
# traced as its mean over ``up_rows`` rows.

class EffectiveNoise:
    """Additive noise of the policy's variances: per direction and round a
    unit-variance ``(N, d)`` block, scaled by the round's variance when the
    block is prepared; MDT's uplink round by round and row by row, by the
    differentials sent."""

    retries = 0

    def __init__(self, config, policy, task):
        self.unit = partial(sample_noise, NoiseSpec(1.0, config.distribution))
        self.down_rng = stream(config.seed, DOMAIN_DOWNLINK)
        self.up_rng = stream(config.seed, DOMAIN_UPLINK)
        self.mode = config.mode
        self.shape = (task.n_clients, task.dim)
        self.up_rows = config.n_participants

    def prepare(self, params, sampled):
        shape = (len(params),) + self.shape
        self.down_noise = _scaled_noise(
            _pick(self.unit(shape, self.down_rng), sampled),
            [rp.downlink_variance for rp in params])
        self.up_noise = _pick(self.unit(shape, self.up_rng), sampled)
        self.up_variances = None    # MDT: scaled round by round
        if params[0].uplink_variance is not None:
            self.up_variances = [rp.uplink_variance for rp in params]
            self.up_noise = _scaled_noise(self.up_noise, self.up_variances)

    def downlink(self, i, w, rp, rows, out):
        np.add(w, self.down_noise[i], out=out)

    def uplink(self, i, rp, w, sent, received):
        noise = self.up_noise[i]
        if self.up_variances is None:
            sigma2 = np.array([mdt_uplink_variance(diff, rp.snr_target)
                               for diff in sent - received])
            noise = _scaled_noise(noise, sigma2)
        else:
            sigma2 = self.up_variances[i]
        return aggregate(uplink_transmit(sent, self.mode, w, received,
                                         noise)), sigma2


class Analog:
    """Fading channels drawn round by round: equalized downlink copies, an
    over-the-air uplink sum under channel inversion with one combined noise,
    and ``retries``, the count of deep-fade retransmissions."""

    up_rows = 1

    def __init__(self, config, policy, task):
        self.down_rng = stream(config.seed, DOMAIN_FADE_DOWNLINK)
        self.up_rng = stream(config.seed, DOMAIN_FADE_UPLINK)
        self.mt = config.mode == "MT"
        self.receivers = task.n_clients
        self.distance = policy.distance
        self.pathloss = policy.pathloss
        self.retries = 0

    def prepare(self, params, sampled):
        """Nothing: how many fades a round draws depends only on the
        outcomes of its own fades (a deep fade is redrawn), so they are
        drawn round by round."""

    def downlink(self, i, w, rp, rows, out):
        received, info = analog_downlink_receive(
            w, power=rp.rho_dl, rng=self.down_rng, copies=rp.div_dl,
            receivers=self.receivers, distance=self.distance,
            pathloss=self.pathloss)
        # ``rows`` are sampled clients, which local_steps checks; in "raise"
        # mode take would gather into a temporary first.
        received.take(rows, axis=0, out=out, mode="clip")
        self.retries += info["retries"]

    def uplink(self, i, rp, w, sent, received):
        agg, info = analog_uplink_aggregate(
            sent if self.mt else sent - received, power=rp.rho_ul,
            rng=self.up_rng, copies=rp.div_ul)
        self.retries += info["retries"]
        return agg if self.mt else w + agg, 1.0 / (rp.rho_ul * rp.div_ul)


def family_inputs(task, config):
    """What every replica of ``config``'s family shares, as :func:`run` takes
    it: the policy, the task's constants (at the run's batch size, over the
    ball of radius ``2 max(||w*||, 1)`` about the optimum) and each round's
    :class:`RoundPolicy`.  None depends on the seed.  More participants than
    clients, or a schedule leaving the positive floats, is a ConfigError."""
    if config.n_participants > task.n_clients:
        raise ConfigError("participants exceed the number of clients")
    batch = config.batch_size if config.batch_size is not None \
        else task.samples_per_client
    initial_sq = squared_distance(np.zeros(task.dim), task.global_optimum())
    radius = TRAJECTORY_RADIUS_FACTOR * max(math.sqrt(initial_sq), 1.0)
    constants = derive_constants(task, batch, radius)
    policy = build_policy(config.policy_name, config.policy_params, constants,
                          task.n_clients, config.n_participants,
                          config.local_epochs)
    try:
        schedule = [policy.round_params(t)
                    for t in range(1, config.rounds + 1)]
        # A scheduled round's fields, and the run's energy (the last two),
        # must be positive floats; presets without a schedule may be silent.
        fields = [f for f in zip(*(vars(rp).values() for rp in schedule))
                  if f[0] is not None]
        leaves = policy.preset.excess is not None and not (
            all(0 < min(f) and sum(f) < math.inf for f in fields)
            and sum(fields[-2]) + sum(fields[-1]) < math.inf)
    except ArithmeticError:     # a float leaving the range mid-formula
        leaves = True
    if leaves:
        raise ConfigError(
            f"task.ridge: {task.ridge:g} (mu {constants.mu:.3g}) with "
            f"policy {policy.name!r} {policy.params()} leaves the float "
            f"range within {config.rounds} rounds")
    return policy, constants, schedule


def run(task, config, inputs=None):
    """Execute a run on ``inputs``, by default ``family_inputs(task,
    config)``, and return its :class:`RunResult`."""
    n_clients = task.n_clients
    n_participants = config.n_participants
    policy, constants, schedule = inputs or family_inputs(task, config)
    dim = task.dim
    batch = config.batch_size if config.batch_size is not None \
        else task.samples_per_client
    epochs = config.local_epochs

    w_star = constants.opt
    w = np.zeros(dim)
    initial_sq = squared_distance(w, w_star)
    radius = constants.trajectory_radius

    everyone = n_participants == n_clients
    rounds = config.rounds
    etas = policy.lr.etas(rounds * epochs).reshape(rounds, epochs)
    first_etas = etas[:, 0].tolist()

    # One generator per domain and run; only the domains the run uses.
    if not everyone:
        sampling_rng = stream(config.seed, DOMAIN_SAMPLING)
    channel = (EffectiveNoise if config.channel == "effective_noise"
               else Analog)(config, policy, task)
    batch_rng = None if batch == task.samples_per_client \
        else stream(config.seed, DOMAIN_BATCH)

    # Divergence guard; floored so a start at the optimum still tolerates noise.
    guard = DIVERGENCE_FACTOR * max(initial_sq, 1.0)

    # Rounds run in blocks of BLOCK.  What a block needs that does not
    # depend on the iterate is prepared first: round parameters, client
    # selections, the channel's noise and local-SGD inputs.  Its rounds then
    # only advance the state and record what the block's trace rows are
    # built from; the received and local models (the ball) give the
    # iterate-ball maximum.
    traces = []
    energy_ul = energy_dl = 0.0
    span = min(BLOCK, rounds)
    every = np.broadcast_to(np.arange(n_clients), (span, n_clients))
    ball = np.empty((span, 2 * n_participants, dim))
    buffers = step_buffers(span, (n_participants, task.samples_per_client)
                           if batch_rng is None
                           else (epochs, n_participants, batch), dim)
    max_iterate_sq = initial_sq

    for start in range(0, rounds, BLOCK):
        ts = range(start + 1, min(start + BLOCK, rounds) + 1)
        params = schedule[start:ts[-1]]
        # Each round's sampled clients: full participation draws no
        # selection, and the sampling stream is separate, so not drawing it
        # changes no other draw.
        sampled = every[:len(ts)] if everyone else np.array(
            [sample_clients(n_clients, n_participants, sampling_rng)
             for _ in ts])
        channel.prepare(params, sampled)
        batches = None if batch_rng is None else _pick(floyd_sample(
            batch_rng.random((len(ts), epochs, n_clients, batch)),
            task.samples_per_client), sampled)
        steps = local_steps(task, sampled, batches, etas[start:ts[-1]],
                            buffers)

        records = []
        for i, (t, rp) in enumerate(zip(ts, params)):
            # (1) Downlink broadcast, received into the ball.
            received = ball[i, :n_participants]
            channel.downlink(i, w, rp, sampled[i], received)

            # (2) Local mini-batch SGD.
            sent = ball[i, n_participants:] = local_train(received, steps[i])

            # (3) Uplink transmission and (4) aggregation.
            w_next, sigma2 = channel.uplink(i, rp, w, sent, received)

            diff = w_next - w_star
            sq = float(diff @ diff)
            if math.isnan(sq):      # still trips the guard
                sq = math.inf
            energy_ul += rp.energy_ul
            energy_dl += rp.energy_dl
            records.append((t, rp, sigma2, sq,
                            np.add.reduce(sent, axis=0), w_next,
                            energy_ul + energy_dl))
            if sq > guard:
                break
            w = w_next

        visited = ball[:len(records)]
        visited -= w_star
        np.multiply(visited, visited, out=visited)
        max_iterate_sq = max(max_iterate_sq,
                             float(np.max(np.sum(visited, axis=-1))))
        traces += _trace_rows(task, records, channel.up_rows, n_participants,
                              first_etas)
        if sq > guard:
            raise DivergenceError(
                f"round {t}: squared distance {sq:.3e} exceeded the guard "
                f"{guard:.3e}", traces=traces)

    max_iterate_dist = math.sqrt(max_iterate_sq)
    return RunResult(
        traces=traces, constants=constants, final_model=w, policy=policy,
        energy_uplink=energy_ul, energy_downlink=energy_dl,
        diagnostics={"max_iterate_distance": max_iterate_dist,
                     "trajectory_radius": radius,
                     "radius_exceeded": max_iterate_dist > radius,
                     "fade_retries": channel.retries})
