"""The federated-averaging-over-noisy-channels state machine.

One run executes, per round: uniform client sampling, noisy downlink broadcast
of the current global model, local mini-batch SGD at each sampled client,
noisy uplink of either the full local model (``MT``) or its differential
against the model the client just received (``MDT``), and server-side
averaging.  One round loop serves both channel layers, each behind one class
that holds its streams and noise, :class:`EffectiveNoise` and
:class:`Analog`, and local SGD is behind a third, :class:`LocalSGD`: each is
prepared once per block and called once per round.  A round's sampled
clients are one ``(K, d)`` array, trained together.  Rounds run in blocks of
``BLOCK`` (32): what a block needs that does not depend on the iterate is
prepared first, local SGD's checked batch rows and scales included, its
rounds only advance the state and check the divergence guard, and the trace
cells it measures and its iterate-ball maximum are computed at its end, each
cell from its own round alone, so the block size changes no output.
Mini-batches are gathered chunk by chunk within a block, as many rounds as
``GATHER_BYTES`` holds, into buffers allocated once per run; full batches
read the clients' moments.  :func:`local_steps` is one round of the same
path.  The guard and the gradient bound's ball are fixed, not run options.

Every run starts from the zero model.  Randomness follows stream layout 8
(:mod:`noisyfed.seeding`): round t reads the t-th block of its domain's
stream, with a row for each of the N clients, and a round uses the rows of
its sampled clients.  Effective noise is a unit-variance ``(N, d)`` block per
direction, scaled row by row; the batches are ``B`` uniforms per (local step,
client), turned into indices by :func:`floyd_sample`; the analog layer and
client sampling draw round by round.  As rows are keyed by client, a round's
draws do not depend on which clients were sampled.

The learning rate is indexed on the per-iteration timeline (round t covers
iterations (t-1)E+1 .. tE); noise and power schedules are indexed by round.
Both are built once per family as columns, a :class:`Schedule`, which also
holds the trace columns every replica shares.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

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

#: Rounds prepared, and later traced, together.
BLOCK = 32
#: The bytes of local-SGD data (features and targets) a run gathers at once:
#: a block's rounds are gathered in chunks of as many as fit, at least one.
#: Gathering round by round cost ``full_mt`` 3.7% of its wall time.
GATHER_BYTES = 192 * 1024

TRANSMISSION_MODES = ("MT", "MDT")
CHANNEL_LAYERS = ("effective_noise", "analog_physical")

#: The radius of the gradient bound's ball about the optimum over
#: ``max(||w*||, 1)``, and the divergence guard over ``max(||w*||^2, 1)``.
TRAJECTORY_RADIUS_FACTOR = 2.0
DIVERGENCE_FACTOR = 1e6


#: A run's trace: the trace file's columns in order, each a list of Python
#: ``int`` or ``float`` with an entry per round.
Trace = namedtuple("Trace", "t sq_dist loss eta sigma2_ul zeta2_dl rho_ul "
                   "rho_dl div_ul div_dl snr_global energy_cum")
TRACE_COLUMNS = Trace._fields


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
        for key in ("n_participants", "rounds", "local_epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"run.{key}: must be >= 1")
        for key, allowed in (("mode", TRANSMISSION_MODES),
                             ("channel", CHANNEL_LAYERS),
                             ("distribution", NOISE_DISTRIBUTIONS)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"run.{key}: must be one of {allowed}")
        preset = PRESETS.get(self.policy_name)
        if preset is not None and preset.mode not in (None, self.mode):
            raise ConfigError(f"run.mode: policy {self.policy_name!r} needs "
                              f"mode {preset.mode!r}")
        if self.channel == "analog_physical" \
                and self.policy_name == "mdt_constant_snr":
            # The analog uplink would send the SNR target as a transmit power.
            raise ConfigError("run.channel: policy 'mdt_constant_snr' needs "
                              "channel 'effective_noise', not "
                              "'analog_physical'")


@dataclass
class RunResult:
    """Everything observable from one run: its :class:`Trace`, the models,
    the energies spent and the trajectory's diagnostics."""

    trace: Trace
    constants: object
    final_model: np.ndarray
    policy: Policy
    energy_uplink: float
    energy_downlink: float
    diagnostics: dict


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


#: One round's local SGD as :class:`LocalSGD` prepares it: the client of each
#: row and, per step, the batch features ``(n, B, d)`` and targets scaled by
#: the root of the step's rate over the batch size, or a full batch's moments
#: ``H_k`` and ``b_k``, the rate left to apply (None once the data hold it)
#: and ``1 - eta * ridge``; and the work buffers a step writes.
LocalSteps = namedtuple("LocalSteps",
                        "clients feats targets rates keeps work")


def _check_range(index, bound, name):
    if index.size and (index.min() < 0 or index.max() >= bound):
        raise IndexError(f"{name} out of range [0, {bound})")


class LocalSGD:
    """Local SGD's data, as the channel layers' noise: per block,
    ``prepare(clients, batches, etas)`` takes each round's clients (which
    may repeat), ``(R, n)``, its steps' sample indices, ``(R, E, n, B)``, or
    None for exact full-batch gradients, and its rates, ``(R, E)``; it checks
    the indices (one out of range is an :class:`IndexError`) and computes
    the flat sample rows, scales, rates and keeps.  Per round i, in order,
    ``steps(i)`` is the round's :class:`LocalSteps`.  Mini-batches are
    gathered chunk by chunk, as many rounds as ``GATHER_BYTES`` holds, at
    least one, into buffers allocated at the first block; a full-batch
    round reads its clients' moments and gathers no sample."""

    feats = None

    def __init__(self, task):
        self.task = task

    def prepare(self, clients, batches, etas):
        task = self.task
        n_clients, samples, dim = task.features.shape
        _check_range(clients, n_clients, "client")
        keeps = (1.0 - etas * task.ridge).tolist()
        if batches is None:
            self.plan = (clients, None, None, etas.tolist(), keeps)
            return
        _check_range(batches, samples, "batch index")
        rows = clients[:, None, :, None] * samples + batches
        scale = np.sqrt(etas / batches.shape[-1])[..., None, None]
        rates = [[None] * etas.shape[1]] * len(etas)
        self.plan = (clients, rows, scale, rates, keeps)
        if self.feats is None:
            shape = rows.shape[1:]
            chunk = min(len(etas), max(1, GATHER_BYTES // (
                8 * (dim + 1) * math.prod(shape))))
            self.feats = np.empty((chunk,) + shape + (dim,))
            self.targets = np.empty((chunk,) + shape)
            self.work = (np.empty(shape[-2:]), np.empty((shape[-2], dim)))

    def steps(self, i):
        clients, rows, scale, rates, keeps = self.plan
        task, picked = self.task, clients[i]
        if rows is None:    # every step reads the clients' moments
            steps = len(keeps[i])
            return LocalSteps(picked, [task.hessians[picked]] * steps,
                              [task.cross_moments[picked]] * steps, rates[i],
                              keeps[i], np.empty((2, len(picked), task.dim)))
        j = i % len(self.feats)
        if j == 0:
            # One flat take costs less than indexing the (N, D, d) stack.
            # The indices are checked: in its default "raise" mode, take
            # gathers into a temporary and copies that into ``out``.
            n = min(len(self.feats), len(rows) - i)
            feats, targets = self.feats[:n], self.targets[:n]
            task.features.reshape(-1, task.dim).take(
                rows[i:i + n], axis=0, out=feats, mode="clip")
            task.targets.reshape(-1).take(rows[i:i + n], out=targets,
                                          mode="clip")
            targets *= scale[i:i + n]
            feats *= scale[i:i + n, ..., None]
        return LocalSteps(picked, self.feats[j], self.targets[j], rates[i],
                          keeps[i], self.work)


def local_steps(task, clients, batches, etas):
    """One round of :class:`LocalSGD` for the clients of the rows, ``(n,)``,
    with one step per rate in ``etas``: ``batches`` holds each step's sample
    indices, ``(len(etas), n, B)``, or is None for full batches."""
    sgd = LocalSGD(task)
    sgd.prepare(np.asarray(clients)[None],
                None if batches is None else np.asarray(batches)[None],
                np.asarray(etas, dtype=np.float64)[None])
    return sgd.steps(0)


def _sgd(w_start, steps, w, watch=None):
    """``w``, ``(n, d)``, after the prepared ``steps`` from ``w_start``, each
    ``w * keep - (a @ w - y) @ a`` in place for a scaled batch, or ``w *
    keep - rate * (H_k w - b_k)`` for a full one; with ``watch``, a row,
    instead the first step (from 1) that leaves that row non-finite."""
    np.copyto(w, w_start)
    residual, grad = steps.work
    for step, (a, y, rate, keep) in enumerate(zip(*steps[1:5]), 1):
        np.matvec(a, w, out=residual)
        residual -= y
        if rate is None:
            np.vecmat(residual, a, out=grad)
        else:               # H_k w - b_k is the gradient
            np.multiply(residual, rate, out=grad)
        w *= keep
        w -= grad
        if watch is not None and not np.isfinite(w[watch]).all():
            return step
    return w


def local_train(w_start, steps, out=None):
    """Run the prepared :class:`LocalSteps` from the ``(n, d)`` array
    ``w_start``, row i starting ``steps.clients[i]``, into ``out`` (apart
    from ``w_start``), or a new array.

    A :class:`DivergenceError` names the first row's client, in the order of
    ``steps.clients``, whose iterate became non-finite, and its first such
    step.
    """
    w = _sgd(w_start, steps, np.empty(np.shape(w_start)) if out is None
             else out)
    if np.isfinite(w).all():
        return w
    # Non-finite is absorbing, so the first bad row at the end is the one to
    # name; replay the steps to find its first non-finite one.
    i = int(np.argmax(~np.isfinite(w).all(axis=1)))
    raise DivergenceError(f"client {steps.clients[i]}: non-finite iterate "
                          f"at local step {_sgd(w_start, steps, w, watch=i)}")


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


#: A family's schedule: its preset's columns for rounds 1..T
#: (:meth:`Policy.round_params`); each direction's running energy sums,
#: ``(2, T)``; the learning rates, ``(T, E)``; and the :class:`Trace` columns
#: every replica shares, with those a run measures None: ``sq_dist``,
#: ``loss``, ``snr_global`` and, for MDT's effective-noise uplink, whose
#: variances follow the differentials sent, ``sigma2_ul``.
Schedule = namedtuple("Schedule", "params spent etas trace")


def _snrs(signals, noises, quiet):
    """Each round's ``snr_global`` from its summed uploads and the sum of
    their noise, ``(R, d)`` each; ``inf`` in a ``quiet`` round, whose
    schedule adds no noise (its noise sum is the average's rounding)."""
    pairs = np.stack([signals, noises])
    # Each round's power by its own product, whatever the block's size.
    powers = np.matmul(pairs[:, :, None, :], pairs[..., None])[..., 0, 0]
    return [math.inf if silent or noise == 0.0 else signal / noise
            for silent, signal, noise in zip(quiet, *powers.tolist())]


def _trace(schedule, sq_dist, loss, snr_global, sigma2_ul):
    """A run's :class:`Trace`: the columns it measured (``sigma2_ul`` None
    where the schedule holds it) over its schedule's, each cut to the rounds
    it recorded."""
    columns = schedule.trace._replace(
        sq_dist=sq_dist, loss=loss, snr_global=snr_global,
        sigma2_ul=schedule.trace.sigma2_ul if sigma2_ul is None
        else sigma2_ul)
    return Trace(*(column[:len(sq_dist)] for column in columns))


# A channel layer: per block, ``prepare(rounds, sampled)`` takes the slice of
# the schedule's rounds and each round's sampled clients; per round i,
# ``downlink(i, w, rows, out)`` writes what ``rows`` receive into ``out``,
# ``uplink(i, w, sent, received)`` returns the next global model and the
# uplink variance of each row where it is measured, else None.

class EffectiveNoise:
    """Additive noise of the policy's variances: per direction and round a
    unit-variance ``(N, d)`` block, scaled by the round's variance when the
    block is prepared; MDT's uplink round by round and row by row, by the
    differentials sent."""

    retries = 0

    def __init__(self, config, policy, task, schedule):
        self.unit = partial(sample_noise, NoiseSpec(1.0, config.distribution))
        self.down_rng = stream(config.seed, DOMAIN_DOWNLINK)
        self.up_rng = stream(config.seed, DOMAIN_UPLINK)
        self.mode = config.mode
        self.shape = (task.n_clients, task.dim)
        self.params = schedule.params

    def prepare(self, rounds, sampled):
        shape = (len(sampled),) + self.shape
        self.down_noise = _scaled_noise(
            _pick(self.unit(shape, self.down_rng), sampled),
            self.params.downlink_variance[rounds])
        self.up_noise = _pick(self.unit(shape, self.up_rng), sampled)
        if self.params.uplink_variance is not None:    # scheduled (MT)
            self.up_noise = _scaled_noise(
                self.up_noise, self.params.uplink_variance[rounds])

    def downlink(self, i, w, rows, out):
        np.add(w, self.down_noise[i], out=out)

    def uplink(self, i, w, sent, received):
        noise, sigma2, snr = self.up_noise[i], None, self.params.snr_target
        if self.params.uplink_variance is None:
            sigma2 = np.array([mdt_uplink_variance(diff, snr)
                               for diff in sent - received])
            noise = _scaled_noise(noise, sigma2)
        return aggregate(uplink_transmit(sent, self.mode, w, received,
                                         noise)), sigma2


class Analog:
    """Fading channels drawn round by round: equalized downlink copies, an
    over-the-air uplink sum under channel inversion with one combined noise,
    and ``retries``, the count of deep-fade retransmissions."""

    def __init__(self, config, policy, task, schedule):
        self.down_rng = stream(config.seed, DOMAIN_FADE_DOWNLINK)
        self.up_rng = stream(config.seed, DOMAIN_FADE_UPLINK)
        self.mt = config.mode == "MT"
        self.receivers = task.n_clients
        self.policy = policy
        trace = schedule.trace
        self.columns = (trace.rho_ul, trace.rho_dl, trace.div_ul, trace.div_dl)
        self.retries = 0

    def prepare(self, rounds, sampled):
        """The block's powers and orders; fades are drawn round by round, as
        a deep fade is redrawn, so a round's count depends on its own."""
        self.rho_ul, self.rho_dl, self.div_ul, self.div_dl = (
            column[rounds] for column in self.columns)

    def downlink(self, i, w, rows, out):
        received, info = analog_downlink_receive(
            w, power=self.rho_dl[i], rng=self.down_rng,
            copies=self.div_dl[i], receivers=self.receivers,
            distance=self.policy.distance, pathloss=self.policy.pathloss)
        # ``rows`` are sampled clients, which LocalSGD checks; in "raise"
        # mode take would gather into a temporary first.
        received.take(rows, axis=0, out=out, mode="clip")
        self.retries += info["retries"]

    def uplink(self, i, w, sent, received):
        agg, info = analog_uplink_aggregate(
            sent if self.mt else sent - received, power=self.rho_ul[i],
            rng=self.up_rng, copies=self.div_ul[i])
        self.retries += info["retries"]
        return agg if self.mt else w + agg, None


def family_inputs(task, config):
    """What every replica of ``config``'s family shares, as :func:`run` takes
    it: the policy, the task's constants (at the run's batch size, over the
    ball of radius ``2 max(||w*||, 1)`` about the optimum) and the rounds'
    :class:`Schedule`.  None depends on the seed.  More participants than
    clients, a schedule leaving the positive floats, or energy leaving the
    floats, is a ConfigError."""
    if config.n_participants > task.n_clients:
        raise ConfigError(f"run.n_participants: {config.n_participants} "
                          f"exceeds task.n_clients ({task.n_clients})")
    batch = config.batch_size if config.batch_size is not None \
        else task.samples_per_client
    initial_sq = squared_distance(np.zeros(task.dim), task.optimum)
    radius = TRAJECTORY_RADIUS_FACTOR * max(math.sqrt(initial_sq), 1.0)
    constants = derive_constants(task, batch, radius)
    policy = build_policy(config.policy_name, config.policy_params, constants,
                          task.n_clients, config.n_participants,
                          config.local_epochs)
    scheduled = policy.preset.bound is not None
    try:
        with np.errstate(all="ignore"):     # a float leaving the range
            params = policy.round_params(np.arange(1, config.rounds + 1))
            spent = np.add.accumulate(params[6:8], axis=1)
            energy_cum = (spent[0] + spent[1]).tolist()
            up, rows = params.uplink_variance, config.n_participants
            if config.channel == "analog_physical":     # one row, at 1/rho
                up, rows = 1.0 / (params.rho_ul * params.div_ul), 1
        sigma2_ul = None if up is None else _round_means(up, rows)
        zeta2_dl = _round_means(params.downlink_variance,
                                config.n_participants)
        # Every run's energy is a float; a scheduled round's fields must be
        # positive floats, where presets without a schedule may be silent.
        leaves = not energy_cum[-1] < math.inf
        if scheduled and not leaves:
            fields = np.array(np.broadcast_arrays(
                *(f for f in params if f is not None)), np.float64)
            leaves = not (fields.min() > 0
                          and fields.sum(axis=1).max() < math.inf)
    except ArithmeticError:     # a float leaving the range mid-formula
        leaves = True
    if leaves:
        culprit = (f"task.ridge: {task.ridge:g} (mu {constants.mu:.3g}) with"
                   if scheduled else "policy.params.%s: the energy of"
                   % ", ".join(policy.params()))
        raise ConfigError(
            f"{culprit} policy {policy.name!r} {policy.params()} leaves the "
            f"float range within {config.rounds} rounds")
    etas = policy.lr.etas(config.rounds * config.local_epochs).reshape(
        config.rounds, config.local_epochs)
    trace = Trace(
        list(range(1, config.rounds + 1)), None, None, etas[:, 0].tolist(),
        sigma2_ul, zeta2_dl, *(column.tolist() for column in params[2:6]),
        None, energy_cum)
    return policy, constants, Schedule(params, spent, etas, trace)


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

    # One generator per domain and run; only the domains the run uses.
    if not everyone:
        sampling_rng = stream(config.seed, DOMAIN_SAMPLING)
    channel = (EffectiveNoise if config.channel == "effective_noise"
               else Analog)(config, policy, task, schedule)
    batch_rng = None if batch == task.samples_per_client \
        else stream(config.seed, DOMAIN_BATCH)

    # Divergence guard; floored so a start at the optimum still tolerates noise.
    guard = DIVERGENCE_FACTOR * max(initial_sq, 1.0)

    # Rounds run in blocks of BLOCK, each prepared first: client selections,
    # the channel's noise and local SGD's batch rows and scales.  Its rounds
    # then only advance the state; the received and local models (the ball)
    # give the block's signal sums and iterate-ball maximum.
    sq_dist, loss, snr_global = [], [], []
    sigma2_ul = [] if schedule.trace.sigma2_ul is None else None
    # A noise-free round schedules no noise either way; MDT's measured
    # uplink (no scheduled sigma2_ul) never counts as noise free.
    scheduled_up = schedule.trace.sigma2_ul
    quiet = [False] * rounds if scheduled_up is None else [
        up == 0.0 and down == 0.0
        for up, down in zip(scheduled_up, schedule.trace.zeta2_dl)]
    span = min(BLOCK, rounds)
    every = np.broadcast_to(np.arange(n_clients), (span, n_clients))
    ball = np.empty((span, 2 * n_participants, dim))
    sgd = LocalSGD(task)
    max_iterate_sq = initial_sq

    for start in range(0, rounds, BLOCK):
        block = slice(start, min(start + BLOCK, rounds))
        size = block.stop - start
        # Each round's sampled clients: full participation draws no
        # selection, and the sampling stream is separate, so not drawing it
        # changes no other draw.
        sampled = every[:size] if everyone else np.array(
            [sample_clients(n_clients, n_participants, sampling_rng)
             for _ in range(size)])
        channel.prepare(block, sampled)
        batches = None if batch_rng is None else _pick(floyd_sample(
            batch_rng.random((size, epochs, n_clients, batch)),
            task.samples_per_client), sampled)
        sgd.prepare(sampled, batches, schedule.etas[block])

        records = []
        for i in range(size):
            # (1) Downlink broadcast and (2) local SGD, into the ball.
            received, sent = ball[i, :n_participants], ball[i, n_participants:]
            channel.downlink(i, w, sampled[i], received)
            local_train(received, sgd.steps(i), out=sent)

            # (3) Uplink transmission and (4) aggregation.
            w_next, sigma2 = channel.uplink(i, w, sent, received)

            diff = w_next - w_star
            sq = float(diff @ diff)
            if math.isnan(sq):      # still trips the guard
                sq = math.inf
            records.append((sq, w_next, sigma2))
            if sq > guard:
                break
            w = w_next

        visited = ball[:len(records)]
        signals = np.add.reduce(visited[:, n_participants:], axis=1)
        visited -= w_star
        np.multiply(visited, visited, out=visited)
        max_iterate_sq = max(max_iterate_sq,
                             float(np.max(np.sum(visited, axis=-1))))
        sq_dists, models, up_variances = zip(*records)
        models = np.array(models)
        sq_dist += sq_dists
        loss += task.global_losses(models).tolist()
        snr_global += _snrs(signals, n_participants * models - signals,
                            quiet[start:])
        if sigma2_ul is not None:
            sigma2_ul += _round_means(up_variances, n_participants)
        if sq > guard:
            raise DivergenceError(
                f"round {start + len(records)}: squared distance {sq:.3e} "
                f"exceeded the guard {guard:.3e}",
                trace=_trace(schedule, sq_dist, loss, snr_global, sigma2_ul))

    max_iterate_dist = math.sqrt(max_iterate_sq)
    return RunResult(
        trace=_trace(schedule, sq_dist, loss, snr_global, sigma2_ul),
        constants=constants, final_model=w, policy=policy,
        energy_uplink=float(schedule.spent[0, -1]),
        energy_downlink=float(schedule.spent[1, -1]),
        diagnostics={"max_iterate_distance": max_iterate_dist,
                     "trajectory_radius": radius,
                     "radius_exceeded": max_iterate_dist > radius,
                     "fade_retries": channel.retries})
