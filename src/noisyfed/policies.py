"""SNR-control schedules and the experiment presets built from them.

Two families live here:

* closed-form schedules that keep channel noise below the decaying SGD noise
  floor (inverse-quadratic noise decay for direct model upload, constant
  receive SNR for differential upload), instantiated at equality so runs
  exercise the largest admissible noise;
* their physical-layer counterparts: quadratically growing transmit power and
  the integer diversity orders that emulate that power with repeated
  transmissions at a fixed per-shot power.

All schedules are pure functions of the round index and a
:class:`LearningRateSchedule`.  The presets are one table, :data:`PRESETS`;
:func:`build_policy` checks a preset's parameters and binds its row to a run
as a :class:`Policy`.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PolicyError, ScheduleError

#: (last round of the stage, diversity order) for the published 500-round
#: staircase used by the discrete diversity preset.
DIVERSITY_STAIRCASE_500 = ((9, 1), (45, 4), (125, 9), (270, 16), (500, 25))


def db_to_linear(snr_db):
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class LearningRateSchedule:
    """Inverse-time learning rate eta_t = 2 / (mu * (gamma + t)).

    ``gamma = max(8 * kappa, local_epochs)`` guarantees eta_1 <= 1/(4L) and
    eta_t <= 2 * eta_(t+E); ``beta = 2 / mu`` is the numerator.
    """

    mu: float
    kappa: float
    local_epochs: int

    def __post_init__(self):
        if self.mu <= 0 or self.kappa < 1 or self.local_epochs < 1:
            raise ConfigError("need mu > 0, kappa >= 1, local_epochs >= 1")

    @classmethod
    def from_constants(cls, constants, local_epochs):
        return cls(mu=constants.mu, kappa=constants.kappa,
                   local_epochs=local_epochs)

    @property
    def gamma(self):
        return max(8.0 * self.kappa, float(self.local_epochs))

    @property
    def beta(self):
        return 2.0 / self.mu

    def eta(self, t):
        if t < 1:
            raise ConfigError("iteration index must be >= 1")
        return 2.0 / (self.mu * (self.gamma + t))

    def etas(self, n_iters):
        """eta_1 .. eta_n as one array, by the formula of :meth:`eta`."""
        return 2.0 / (self.mu * (self.gamma + np.arange(1, n_iters + 1)))


def _check_round(t, lr):
    if t < 1:
        raise ScheduleError("round index must be >= 1")
    if lr.gamma + t - 2 <= 0:
        raise ScheduleError("schedule undefined: gamma + t - 2 <= 0")


def mt_full_noise(t, n_clients, lr):
    """Total (uplink, downlink) noise power budget for full-participation upload.

    Both decay as 1/t^2; dividing by ``n_clients`` gives the equal per-client
    split.
    """
    _check_round(t, lr)
    g = lr.gamma
    mu2 = lr.mu ** 2
    sigma2_total = 4.0 * n_clients ** 2 / (mu2 * (g + t - 1) ** 2)
    zeta2_total = 4.0 * n_clients ** 2 / (mu2 * (g + t) * (g + t - 2))
    return sigma2_total, zeta2_total


def mt_partial_noise(t, n_clients, n_participants, lr):
    """Per-client (uplink, downlink) noise power for sampled-client upload."""
    if not 1 <= n_participants <= n_clients:
        raise ConfigError("need 1 <= participants <= clients")
    _check_round(t, lr)
    g = lr.gamma
    mu2 = lr.mu ** 2
    sigma2 = 4.0 * n_participants / (mu2 * (g + t - 1) ** 2)
    zeta2 = 4.0 * n_clients / (mu2 * (g + t) * (g + t - 2))
    return sigma2, zeta2


def mdt_downlink_noise(t, n_clients, n_participants, snr_target, lr):
    """Per-client downlink noise power when the uplink carries differentials
    at a constant receive SNR ``snr_target``."""
    if snr_target <= 0:
        raise PolicyError("constant uplink SNR target must be positive")
    if not 1 <= n_participants <= n_clients:
        raise ConfigError("need 1 <= participants <= clients")
    _check_round(t, lr)
    g = lr.gamma
    denom = ((g + t) * (g + t - 2) / n_clients
             + (1.0 + 1.0 / snr_target) * (g + t) ** 2 / n_participants)
    return (4.0 / lr.mu ** 2) / denom


def mdt_uplink_variance(diff, snr_target):
    """Per-element uplink noise variance realizing a receive SNR of
    ``snr_target`` for the differential actually transmitted (plug-in
    estimate of its power)."""
    if snr_target <= 0:
        raise PolicyError("constant uplink SNR target must be positive")
    diff = np.asarray(diff, dtype=np.float64)
    return float(diff @ diff) / (diff.size * snr_target)


def uplink_power(t, n_participants, lr):
    """Average uplink transmit power that inverts the sampled-upload noise
    schedule: grows as t^2."""
    _check_round(t, lr)
    return lr.mu ** 2 * (lr.gamma + t - 1) ** 2 / (4.0 * n_participants)


def downlink_power(t, n_clients, lr, distance=1.0, pathloss=2.0):
    """Broadcast transmit power compensating pathloss ``distance**pathloss``
    while inverting the downlink noise schedule: grows as t^2."""
    if distance <= 0:
        raise ConfigError("distance must be positive")
    _check_round(t, lr)
    g = lr.gamma
    return (distance ** pathloss) * lr.mu ** 2 * (g + t) * (g + t - 2) \
        / (4.0 * n_clients)


def budget_split(total, rounds):
    """Quadratically increasing per-round energies that sum exactly to ``total``.

    The normalizer is 6 / (T (T+1) (2T+1)), the inverse of sum(t^2).
    """
    if total <= 0 or rounds < 1:
        raise ConfigError("need total > 0 and rounds >= 1")
    t = np.arange(1, rounds + 1, dtype=np.float64)
    return 6.0 * total * t ** 2 / (rounds * (rounds + 1) * (2 * rounds + 1))


def diversity_orders(rho_required, rho_available):
    """Smallest number of repeated transmissions at ``rho_available`` whose
    combined SNR reaches ``rho_required``."""
    if rho_required <= 0 or rho_available <= 0:
        raise PolicyError("powers must be positive")
    ratio = rho_required / rho_available
    order = int(math.ceil(ratio))
    # Guard the exact-multiple case against float round-up.
    if order > 1 and (order - 1) >= ratio * (1.0 - 1e-12):
        order -= 1
    return max(order, 1)


def reference_diversity_schedule(t):
    """Diversity order at round t of the published five-stage staircase of
    the 500-round protocol."""
    for last_round, order in DIVERSITY_STAIRCASE_500:
        if 1 <= t <= last_round:
            return order
    raise ScheduleError(f"round {t} outside [1, 500]")


def equal_power_variance(snr_db):
    """Constant per-element noise variance for a fixed receive SNR in dB,
    assuming unit per-element signal power."""
    return 10.0 ** (-snr_db / 10.0)


# ---------------------------------------------------------------------------
# Presets: per-round channel parameters consumed by the engine.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundPolicy:
    """Channel parameters for one round.

    ``uplink_variance`` is None when the uplink instead holds a constant
    receive SNR (``snr_target``) on the transmitted differential.  Powers
    are receive-SNR-equivalent at unit pathloss; energies are
    per-direction, per-round.
    """

    uplink_variance: float
    downlink_variance: float
    snr_target: float = None
    rho_ul: float = math.inf
    rho_dl: float = math.inf
    div_ul: int = 1
    div_dl: int = 1
    energy_ul: float = 0.0
    energy_dl: float = 0.0


def _noise_free(p, t):
    """Ideal channels: zero noise in both directions, no modeled energy cost."""
    return RoundPolicy(uplink_variance=0.0, downlink_variance=0.0)


def _equal_power(p, t):
    """Constant receive SNR in both directions, identical across rounds."""
    var = equal_power_variance(p.snr_db)
    rho = db_to_linear(p.snr_db)
    return RoundPolicy(uplink_variance=var, downlink_variance=var,
                       rho_ul=rho, rho_dl=rho,
                       energy_ul=rho, energy_dl=rho)


def _mt_full(p, t):
    """Equality instantiation of the full-participation upload schedule,
    split equally across clients."""
    sigma2_total, zeta2_total = mt_full_noise(t, p.n_clients, p.lr)
    up = sigma2_total * p.variance_scale / p.n_clients
    down = zeta2_total * p.variance_scale / p.n_clients
    return RoundPolicy(uplink_variance=up, downlink_variance=down,
                       rho_ul=1.0 / up, rho_dl=1.0 / down,
                       energy_ul=1.0 / up, energy_dl=1.0 / down)


def _mt_full_excess(p, t, rp):
    """Relative excess over the full-participation upload schedule."""
    cap_up, cap_down = mt_full_noise(t, p.n_clients, p.lr)
    return max(rp.uplink_variance * p.n_clients / cap_up,
               rp.downlink_variance * p.n_clients / cap_down) - 1.0


def _mt_partial(p, t):
    """Equality instantiation of the sampled-client upload schedule
    (homogeneous per-client noise)."""
    sigma2, zeta2 = mt_partial_noise(t, p.n_clients, p.n_participants, p.lr)
    sigma2 *= p.variance_scale
    zeta2 *= p.variance_scale
    return RoundPolicy(uplink_variance=sigma2, downlink_variance=zeta2,
                       rho_ul=1.0 / sigma2, rho_dl=1.0 / zeta2,
                       energy_ul=1.0 / sigma2, energy_dl=1.0 / zeta2)


def _mt_partial_excess(p, t, rp):
    """Relative excess over the sampled-client upload schedule."""
    cap_up, cap_down = mt_partial_noise(t, p.n_clients, p.n_participants,
                                        p.lr)
    return max(float(rp.uplink_variance) / cap_up,
               float(rp.downlink_variance) / cap_down) - 1.0


def _mdt(p, t):
    """Constant uplink receive SNR on differentials; scheduled downlink
    noise."""
    zeta2 = mdt_downlink_noise(t, p.n_clients, p.n_participants,
                               p.snr_target, p.lr)
    zeta2 *= p.variance_scale
    effective_snr = p.snr_target / p.variance_scale
    return RoundPolicy(uplink_variance=None, downlink_variance=zeta2,
                       snr_target=effective_snr,
                       rho_ul=effective_snr, rho_dl=1.0 / zeta2,
                       energy_ul=effective_snr, energy_dl=1.0 / zeta2)


def _mdt_excess(p, t, rp):
    # Any constant uplink SNR is admissible; only the downlink schedule
    # can be violated, judged against the cap for the SNR actually used.
    cap_down = mdt_downlink_noise(t, p.n_clients, p.n_participants,
                                  rp.snr_target, p.lr)
    return float(rp.downlink_variance) / cap_down - 1.0


def _power(p, t):
    """Quadratically growing transmit power in both directions; the
    power-first view of the sampled-upload equality schedule."""
    rho_ul = uplink_power(t, p.n_participants, p.lr) / p.variance_scale
    rho_dl = downlink_power(t, p.n_clients, p.lr, p.distance,
                            p.pathloss) / p.variance_scale
    gain = p.distance ** (-p.pathloss)
    return RoundPolicy(uplink_variance=1.0 / rho_ul,
                       downlink_variance=1.0 / (gain * rho_dl),
                       rho_ul=rho_ul, rho_dl=rho_dl,
                       energy_ul=rho_ul, energy_dl=rho_dl)


def _diversity(p, t):
    """Fixed per-shot power; t^2 SNR growth comes from integer numbers of
    repeated transmissions combined at the receiver."""
    need_ul = uplink_power(t, p.n_participants, p.lr) / p.variance_scale
    need_dl = downlink_power(t, p.n_clients, p.lr, p.distance,
                             p.pathloss) / p.variance_scale
    div_ul = diversity_orders(need_ul, p.rho_uplink)
    div_dl = diversity_orders(need_dl, p.rho_downlink)
    gain = p.distance ** (-p.pathloss)
    return RoundPolicy(
        uplink_variance=1.0 / (p.rho_uplink * div_ul),
        downlink_variance=1.0 / (gain * p.rho_downlink * div_dl),
        rho_ul=p.rho_uplink, rho_dl=p.rho_downlink,
        div_ul=div_ul, div_dl=div_dl,
        energy_ul=p.rho_uplink * div_ul,
        energy_dl=p.rho_downlink * div_dl,
    )


@dataclass(frozen=True)
class Preset:
    """One row of :data:`PRESETS`.

    ``params`` maps each parameter the preset takes to its default
    (:data:`REQUIRED`: none).  ``emit(policy, t)`` gives round t's
    :class:`RoundPolicy`; ``excess(policy, t, rp)`` the relative excess of
    round t's ``rp`` over the schedule's cap (None: the preset follows no
    schedule).  ``bound`` is the convergence-bound variant the schedule
    realizes, ``mode`` the transmission mode the preset needs (None:
    either), and ``every_client`` whether it needs every client to take
    part.
    """

    params: dict
    emit: object
    excess: object = None
    bound: str = None
    mode: str = None
    every_client: bool = False


REQUIRED = object()
_SCALE = {"variance_scale": 1.0}
_PATHLOSS = {"distance": 1.0, "pathloss": 2.0}

#: Every preset by name.  A schedule-backed preset takes ``variance_scale``,
#: a noise multiplier the verification suite uses as a negative control.
#: ``verify theorems`` reports the presets that carry their own bound in
#: this order.
PRESETS = {
    "noise_free": Preset({}, _noise_free),
    "equal_power": Preset({"snr_db": 10.0}, _equal_power),
    "power_t2": Preset({**_PATHLOSS, **_SCALE}, _power, _mt_partial_excess,
                       "mt_partial"),
    "diversity_t2": Preset(
        {"rho_uplink": REQUIRED, "rho_downlink": REQUIRED, **_PATHLOSS,
         **_SCALE}, _diversity, _mt_partial_excess, "mt_partial"),
    "mt_full": Preset(_SCALE, _mt_full, _mt_full_excess, "mt_full",
                      every_client=True),
    "mt_partial": Preset(_SCALE, _mt_partial, _mt_partial_excess,
                         "mt_partial"),
    "mdt_constant_snr": Preset({"snr_target": 10.0, **_SCALE}, _mdt,
                               _mdt_excess, "mdt_constant_snr", mode="MDT"),
}

#: Parameters that must be positive; any other number need only be finite.
_POSITIVE = ("variance_scale", "snr_target", "rho_uplink", "rho_downlink",
             "distance")
#: The largest ``|snr_db|`` whose power and variance, ``10^(±snr_db/10)``,
#: are finite floats.
MAX_DB = math.floor(10 * math.log10(sys.float_info.max))


class Policy:
    """A preset wired to a run: its :data:`PRESETS` row, its parameters as
    attributes, the learning-rate schedule and the client counts.  A preset
    without ``distance`` and ``pathloss`` is received at unit distance."""

    distance = 1.0
    pathloss = 2.0

    def __init__(self, name, lr, n_clients, n_participants, values):
        self.name = name
        self.preset = PRESETS[name]
        self.lr = lr
        self.n_clients = int(n_clients)
        self.n_participants = int(n_participants)
        vars(self).update(values)

    def params(self):
        """The parameters in effect, defaults included."""
        return {key: getattr(self, key) for key in self.preset.params}

    def round_params(self, t):
        return self.preset.emit(self, t)

    def schedule_excess(self, t, rp):
        """Relative excess of round t's :class:`RoundPolicy` ``rp`` over
        the schedule, or None."""
        excess = self.preset.excess
        return None if excess is None else excess(self, t, rp)


def build_policy(name, params, constants, n_clients, n_participants,
                 local_epochs):
    """Instantiate a preset by name, wiring in task-derived constants.  A
    parameter the preset does not take, lacks or cannot use is a
    :class:`ConfigError` that names it."""
    preset = PRESETS.get(name)
    if preset is None:
        raise ConfigError(
            f"unknown policy {name!r}; expected one of {tuple(PRESETS)}")
    params = dict(params or {})
    unknown = set(params) - set(preset.params)
    if unknown:
        raise ConfigError(f"unknown policy parameters: {sorted(unknown)}")
    missing = [key for key, default in preset.params.items()
               if default is REQUIRED and key not in params]
    if missing:
        raise ConfigError(f"policy {name!r} needs parameters {missing}")
    if preset.every_client and n_participants < n_clients:
        raise ConfigError(f"policy {name!r} needs every client "
                          f"({n_clients}) to take part; use 'mt_partial'")
    values = {key: _checked(key, params.get(key, default))
              for key, default in preset.params.items()}
    if "pathloss" in values:    # distance^pathloss and its inverse: floats
        loss_db = 10 * values["pathloss"] * math.log10(values["distance"])
        if abs(loss_db) > MAX_DB:
            raise ConfigError(
                f"policy.params.distance and policy.params.pathloss: distance"
                f"^pathloss is {loss_db:.6g} dB, beyond ±{MAX_DB} dB")
    lr = LearningRateSchedule.from_constants(constants, local_epochs)
    return Policy(name, lr, n_clients, n_participants, values)


def _checked(key, value):
    """A parameter's value as a preset uses it: a finite float, positive if
    :data:`_POSITIVE` names it, at most :data:`MAX_DB` in size for
    ``snr_db``."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        raise ConfigError(f"policy parameter {key!r} must be a finite "
                          f"number, not {value!r}")
    if key in _POSITIVE and value <= 0:
        raise ConfigError(f"policy parameter {key!r} must be positive")
    if key == "snr_db" and abs(value) > MAX_DB:
        raise ConfigError(f"policy parameter 'snr_db' must be within "
                          f"±{MAX_DB} dB, not {value!r}")
    return float(value)
