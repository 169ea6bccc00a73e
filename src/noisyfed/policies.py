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
:class:`LearningRateSchedule`.
"""

import math
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


def reference_diversity_schedule(t, rounds=500):
    """Diversity order of the published five-stage staircase for a
    ``rounds``-long run (defined for the 500-round protocol)."""
    if rounds != 500:
        raise ConfigError("the reference staircase is defined for 500 rounds")
    if not 1 <= t <= rounds:
        raise ScheduleError(f"round {t} outside [1, {rounds}]")
    for last_round, order in DIVERSITY_STAIRCASE_500:
        if t <= last_round:
            return order
    raise AssertionError("unreachable")


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

    ``uplink_variance`` is a scalar, a per-client array, or None when the
    uplink instead holds a constant receive SNR (``snr_target``) on the
    transmitted differential.  Powers are receive-SNR-equivalent at unit
    pathloss; energies are per-direction, per-round.
    """

    uplink_variance: object
    downlink_variance: object
    snr_target: float = None
    rho_ul: float = math.inf
    rho_dl: float = math.inf
    div_ul: int = 1
    div_dl: int = 1
    energy_ul: float = 0.0
    energy_dl: float = 0.0


class NoiseFreePolicy:
    """Ideal channels: zero noise in both directions, no modeled energy cost."""

    name = "noise_free"

    def params(self):
        return {}

    def round_params(self, t):
        return RoundPolicy(uplink_variance=0.0, downlink_variance=0.0)

    def schedule_excess(self, t):
        return None


class EqualPowerPolicy:
    """Constant receive SNR in both directions, identical across rounds."""

    name = "equal_power"

    def __init__(self, snr_db=10.0):
        self.snr_db = float(snr_db)

    def params(self):
        return {"snr_db": self.snr_db}

    def round_params(self, t):
        var = equal_power_variance(self.snr_db)
        rho = db_to_linear(self.snr_db)
        return RoundPolicy(uplink_variance=var, downlink_variance=var,
                           rho_ul=rho, rho_dl=rho,
                           energy_ul=rho, energy_dl=rho)

    def schedule_excess(self, t):
        return None


class _ScheduledPolicy:
    """Shared plumbing for the schedule-driven presets."""

    def __init__(self, lr, n_clients, n_participants, variance_scale=1.0):
        if variance_scale <= 0:
            raise PolicyError("variance_scale must be positive")
        self.lr = lr
        self.n_clients = int(n_clients)
        self.n_participants = int(n_participants)
        self.variance_scale = float(variance_scale)

    def _base_params(self):
        return {"variance_scale": self.variance_scale}

    def schedule_excess(self, t):
        """Relative excess over the sampled-client upload schedule."""
        cap_up, cap_down = mt_partial_noise(t, self.n_clients,
                                            self.n_participants, self.lr)
        rp = self.round_params(t)
        return max(float(rp.uplink_variance) / cap_up,
                   float(rp.downlink_variance) / cap_down) - 1.0


class MtFullNoisePolicy(_ScheduledPolicy):
    """Equality instantiation of the full-participation upload schedule,
    split across clients (equally unless weights are given)."""

    name = "mt_full"

    def __init__(self, lr, n_clients, weights=None, variance_scale=1.0):
        super().__init__(lr, n_clients, n_clients, variance_scale)
        if weights is None:
            self.weights = None
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n_clients,) or np.any(w < 0):
                raise PolicyError("weights must be non-negative, one per client")
            total = w.sum()
            if total <= 0:
                raise PolicyError("weights must not all be zero")
            self.weights = w / total

    def params(self):
        p = self._base_params()
        if self.weights is not None:
            p["weights"] = self.weights.tolist()
        return p

    def round_params(self, t):
        sigma2_total, zeta2_total = mt_full_noise(t, self.n_clients, self.lr)
        sigma2_total *= self.variance_scale
        zeta2_total *= self.variance_scale
        if self.weights is None:
            up = sigma2_total / self.n_clients
            down = zeta2_total / self.n_clients
        else:
            up = self.weights * sigma2_total
            down = self.weights * zeta2_total
        mean_up = sigma2_total / self.n_clients
        mean_down = zeta2_total / self.n_clients
        return RoundPolicy(uplink_variance=up, downlink_variance=down,
                           rho_ul=1.0 / mean_up, rho_dl=1.0 / mean_down,
                           energy_ul=1.0 / mean_up, energy_dl=1.0 / mean_down)

    def schedule_excess(self, t):
        cap_up, cap_down = mt_full_noise(t, self.n_clients, self.lr)
        rp = self.round_params(t)
        emitted_up = _total_variance(rp.uplink_variance, self.n_clients)
        emitted_down = _total_variance(rp.downlink_variance, self.n_clients)
        return max(emitted_up / cap_up, emitted_down / cap_down) - 1.0


class MtPartialNoisePolicy(_ScheduledPolicy):
    """Equality instantiation of the sampled-client upload schedule
    (homogeneous per-client noise)."""

    name = "mt_partial"

    def params(self):
        return self._base_params()

    def round_params(self, t):
        sigma2, zeta2 = mt_partial_noise(t, self.n_clients, self.n_participants,
                                         self.lr)
        sigma2 *= self.variance_scale
        zeta2 *= self.variance_scale
        return RoundPolicy(uplink_variance=sigma2, downlink_variance=zeta2,
                           rho_ul=1.0 / sigma2, rho_dl=1.0 / zeta2,
                           energy_ul=1.0 / sigma2, energy_dl=1.0 / zeta2)


class MdtConstantSnrPolicy(_ScheduledPolicy):
    """Constant uplink receive SNR on differentials; scheduled downlink noise."""

    name = "mdt_constant_snr"

    def __init__(self, lr, n_clients, n_participants, snr_target=10.0,
                 variance_scale=1.0):
        super().__init__(lr, n_clients, n_participants, variance_scale)
        if snr_target <= 0:
            raise PolicyError("snr_target must be positive")
        self.snr_target = float(snr_target)

    def params(self):
        p = self._base_params()
        p["snr_target"] = self.snr_target
        return p

    def round_params(self, t):
        zeta2 = mdt_downlink_noise(t, self.n_clients, self.n_participants,
                                   self.snr_target, self.lr)
        zeta2 *= self.variance_scale
        effective_snr = self.snr_target / self.variance_scale
        return RoundPolicy(uplink_variance=None, downlink_variance=zeta2,
                           snr_target=effective_snr,
                           rho_ul=effective_snr, rho_dl=1.0 / zeta2,
                           energy_ul=effective_snr, energy_dl=1.0 / zeta2)

    def schedule_excess(self, t):
        # Any constant uplink SNR is admissible; only the downlink schedule
        # can be violated, judged against the cap for the SNR actually used.
        rp = self.round_params(t)
        cap_down = mdt_downlink_noise(t, self.n_clients, self.n_participants,
                                      rp.snr_target, self.lr)
        return float(rp.downlink_variance) / cap_down - 1.0


class PowerControlPolicy(_ScheduledPolicy):
    """Quadratically growing transmit power in both directions; the
    power-first view of the sampled-upload equality schedule."""

    name = "power_t2"

    def __init__(self, lr, n_clients, n_participants, distance=1.0,
                 pathloss=2.0, variance_scale=1.0):
        super().__init__(lr, n_clients, n_participants, variance_scale)
        self.distance = float(distance)
        self.pathloss = float(pathloss)

    def params(self):
        p = self._base_params()
        p.update({"distance": self.distance, "pathloss": self.pathloss})
        return p

    def round_params(self, t):
        rho_ul = uplink_power(t, self.n_participants, self.lr) / self.variance_scale
        rho_dl = downlink_power(t, self.n_clients, self.lr, self.distance,
                                self.pathloss) / self.variance_scale
        gain = self.distance ** (-self.pathloss)
        return RoundPolicy(uplink_variance=1.0 / rho_ul,
                           downlink_variance=1.0 / (gain * rho_dl),
                           rho_ul=rho_ul, rho_dl=rho_dl,
                           energy_ul=rho_ul, energy_dl=rho_dl)


class DiversityPolicy(_ScheduledPolicy):
    """Fixed per-shot power; t^2 SNR growth comes from integer numbers of
    repeated transmissions combined at the receiver."""

    name = "diversity_t2"

    def __init__(self, lr, n_clients, n_participants, rho_uplink, rho_downlink,
                 distance=1.0, pathloss=2.0, variance_scale=1.0):
        super().__init__(lr, n_clients, n_participants, variance_scale)
        if rho_uplink <= 0 or rho_downlink <= 0:
            raise PolicyError("per-shot powers must be positive")
        self.rho_uplink = float(rho_uplink)
        self.rho_downlink = float(rho_downlink)
        self.distance = float(distance)
        self.pathloss = float(pathloss)

    def params(self):
        p = self._base_params()
        p.update({"rho_uplink": self.rho_uplink, "rho_downlink": self.rho_downlink,
                  "distance": self.distance, "pathloss": self.pathloss})
        return p

    def round_params(self, t):
        need_ul = uplink_power(t, self.n_participants, self.lr) / self.variance_scale
        need_dl = downlink_power(t, self.n_clients, self.lr, self.distance,
                                 self.pathloss) / self.variance_scale
        div_ul = diversity_orders(need_ul, self.rho_uplink)
        div_dl = diversity_orders(need_dl, self.rho_downlink)
        gain = self.distance ** (-self.pathloss)
        return RoundPolicy(
            uplink_variance=1.0 / (self.rho_uplink * div_ul),
            downlink_variance=1.0 / (gain * self.rho_downlink * div_dl),
            rho_ul=self.rho_uplink, rho_dl=self.rho_downlink,
            div_ul=div_ul, div_dl=div_dl,
            energy_ul=self.rho_uplink * div_ul,
            energy_dl=self.rho_downlink * div_dl,
        )


POLICY_NAMES = ("noise_free", "equal_power", "power_t2", "diversity_t2",
                "mt_full", "mt_partial", "mdt_constant_snr")


def build_policy(name, params, constants, n_clients, n_participants,
                 local_epochs):
    """Instantiate a preset by name, wiring in task-derived constants."""
    params = dict(params or {})
    if name == "noise_free":
        _reject_unknown(params, ())
        return NoiseFreePolicy()
    if name == "equal_power":
        _reject_unknown(params, ("snr_db",))
        return EqualPowerPolicy(**params)
    lr = LearningRateSchedule.from_constants(constants, local_epochs)
    if name == "mt_full":
        _reject_unknown(params, ("weights", "variance_scale"))
        return MtFullNoisePolicy(lr, n_clients, **params)
    if name == "mt_partial":
        _reject_unknown(params, ("variance_scale",))
        return MtPartialNoisePolicy(lr, n_clients, n_participants, **params)
    if name == "mdt_constant_snr":
        _reject_unknown(params, ("snr_target", "variance_scale"))
        return MdtConstantSnrPolicy(lr, n_clients, n_participants, **params)
    if name == "power_t2":
        _reject_unknown(params, ("distance", "pathloss", "variance_scale"))
        return PowerControlPolicy(lr, n_clients, n_participants, **params)
    if name == "diversity_t2":
        _reject_unknown(params, ("rho_uplink", "rho_downlink", "distance",
                                 "pathloss", "variance_scale"))
        missing = [k for k in ("rho_uplink", "rho_downlink") if k not in params]
        if missing:
            raise ConfigError(f"policy {name!r} needs parameters {missing}")
        return DiversityPolicy(lr, n_clients, n_participants, **params)
    raise ConfigError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")


def _reject_unknown(params, allowed):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown policy parameters: {sorted(unknown)}")


def _total_variance(per_client, n_clients):
    """Sum per-client variances, expanding an equal-split scalar."""
    if np.ndim(per_client) == 0:
        return float(per_client) * n_clients
    return float(np.sum(per_client))
