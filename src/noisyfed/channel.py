"""Channel models: scheduled effective noise and an analog fading layer.

Two abstractions, matching how the rest of the package consumes them:

* effective noise — zero-mean IID perturbations parameterized purely by their
  per-element variance, with Gaussian, uniform, or Laplace marginals;
* an analog layer — narrowband fading with truncated channel inversion at the
  transmitter, over-the-air summation of simultaneous uploads, and receiver
  diversity combining.  Transmitted values ride the in-phase component and the
  post-processing effective noise is modeled as real with unit variance per
  element at unit power.

Deep fades are handled by redrawing the fade (a retransmission) whenever the
small-scale magnitude falls below the inversion floor; after ``max_retries``
consecutive failures the transmission errors out.  Under stream layout 7 a
call draws only what its output depends on, deep-fade counts first, as
binomial thinning of its ``copies`` fades per element: the uplink, whose
inversion cancels its fades, then its combined noise; the downlink, which
combines its copies by maximal-ratio combining, then one Gamma draw per
element for their summed power gain and one normal for its noise.  At
``power=math.inf`` either link still makes its draws but adds no noise.
:func:`draw_fades` draws the fades themselves, element by element.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelError, ConfigError, PolicyError

NOISE_DISTRIBUTIONS = ("gaussian", "uniform", "laplace")

INVERSION_FLOOR = 0.05
MAX_FADE_RETRIES = 10


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean IID effective noise with a prescribed per-element variance."""

    variance: float
    distribution: str = "gaussian"

    def __post_init__(self):
        if self.variance < 0:
            raise PolicyError("noise variance must be non-negative")
        if self.distribution not in NOISE_DISTRIBUTIONS:
            raise ConfigError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {NOISE_DISTRIBUTIONS}")


def sample_noise(spec, size, rng):
    """Draw IID noise matching ``spec``'s variance exactly in expectation."""
    std = math.sqrt(spec.variance)
    if spec.distribution == "gaussian":
        return rng.normal(0.0, std, size=size)
    if spec.distribution == "uniform":
        half_width = math.sqrt(3.0 * spec.variance)
        return rng.uniform(-half_width, half_width, size=size)
    # Laplace with scale b has variance 2 b^2.
    return rng.laplace(0.0, math.sqrt(spec.variance / 2.0), size=size)


def add_effective_noise(v, spec, rng):
    """Return ``v`` plus IID effective noise; exact copy when variance is 0."""
    v = np.asarray(v, dtype=np.float64)
    if spec.variance == 0.0:
        return v.copy()
    return v + sample_noise(spec, v.shape, rng)


def draw_fades(shape, rng, floor=INVERSION_FLOOR, max_retries=MAX_FADE_RETRIES):
    """Rayleigh power gains ``|h|^2`` (Exp(1), one draw per element in C
    order), none below ``floor**2``.

    Deep fades (``|h| < floor``) are redrawn in rounds over all still-deep
    elements, in C order; an element still deep after ``max_retries`` redraws
    raises :class:`ChannelError`.  Returns ``(gains, retries)`` where
    ``retries`` counts element redraws (each one a retransmission).
    """
    gains = rng.standard_exponential(shape)
    flat = gains.reshape(-1)
    floor2 = floor * floor
    deep = (flat < floor2).nonzero()[0]
    retries = 0
    for _ in range(max_retries):
        if not deep.size:
            break
        retries += deep.size
        flat[deep] = rng.standard_exponential(deep.size)
        deep = deep[flat[deep] < floor2]
    if deep.size:
        raise ChannelError(
            f"deep fade persisted beyond {max_retries} retransmissions")
    return gains, retries


def _deep_fade_retries(fades, rng, floor, max_retries):
    """Retransmissions of ``fades`` Rayleigh fades, each deep
    (``|h| < floor``) with ``p = 1 - exp(-floor**2)``: the count
    ``Binomial(fades, p)``, then ``Binomial(deep, p)`` per redraw round.
    Deep fades left after ``max_retries`` rounds raise
    :class:`ChannelError`."""
    p_deep = -math.expm1(-floor * floor)
    deep = rng.binomial(fades, p_deep)
    retries = 0
    for _ in range(max_retries):
        if not deep:
            break
        retries += deep
        deep = rng.binomial(deep, p_deep)
    if deep:
        raise ChannelError(
            f"deep fade persisted beyond {max_retries} retransmissions")
    return retries


def _check_link(power, copies):
    if power <= 0:
        raise PolicyError("transmit power must be positive")
    if copies < 1:
        raise ConfigError("copies must be >= 1")


def mrc_gains(shape, copies, rng, floor=INVERSION_FLOOR,
              max_retries=MAX_FADE_RETRIES):
    """Summed power gains ``sum_q |h_q|^2`` of ``copies`` fades per element
    of ``shape``, none below ``floor**2``: what maximal-ratio combining
    (MRC) of the copies needs.

    A kept gain is ``floor**2 + Exp(1)`` by memorylessness, so the sum is
    ``copies * floor**2 + Gamma(copies)``: after the deep-fade counts of
    :func:`_deep_fade_retries`, one ``standard_gamma`` per element.
    Returns ``(gains, retries)``.
    """
    retries = _deep_fade_retries(copies * math.prod(shape), rng, floor,
                                 max_retries)
    gains = rng.standard_gamma(copies, shape)
    gains += copies * floor * floor
    return gains, retries


def analog_uplink_aggregate(models, power, rng, copies=1,
                            floor=INVERSION_FLOOR,
                            max_retries=MAX_FADE_RETRIES):
    """Over-the-air sum of simultaneous uploads under channel inversion.

    Every client pre-inverts its fade so each element arrives as
    ``sqrt(power)/K * sum_k models[k]`` plus unit-variance receiver noise; the
    returned vector is rescaled by ``1/sqrt(power)``, i.e. the client average
    plus noise of per-element variance ``1/(power * copies)``: the mean of
    ``copies`` independent receptions.  Inversion cancels the fade exactly
    (pathloss included), so the fades only decide deep-fade retransmissions.

    Draws the deep-fade counts of the ``copies * K * d`` fades
    (:func:`_deep_fade_retries`), then the ``(d,)`` combined noise.

    Returns ``(aggregate, info)`` with ``info['retries']`` counting deep-fade
    retransmissions.
    """
    models = np.atleast_2d(np.asarray(models, dtype=np.float64))
    n_clients, dim = models.shape
    _check_link(power, copies)
    retries = _deep_fade_retries(copies * models.size, rng, floor,
                                 max_retries)
    noise = rng.standard_normal(dim)
    noise *= 1.0 / math.sqrt(power * copies)
    # Bit for bit models.mean(axis=0), without its per-call overhead.
    total = np.add.reduce(models, axis=0)
    total /= n_clients
    total += noise
    return total, {"retries": retries}


def analog_downlink_receive(v, power, rng, copies=1, receivers=1,
                            distance=1.0, pathloss=2.0, floor=INVERSION_FLOOR,
                            max_retries=MAX_FADE_RETRIES):
    """A broadcast of ``v`` as ``receivers`` clients each receive it, its
    ``copies`` combined by maximal-ratio combining.

    Copy q arrives with power gain ``g_q = |h_q|^2`` (same truncated
    inversion floor as the uplink); weighting each copy by its gain leaves
    noise of per-element variance
    ``1/(power * distance**-pathloss * sum_q g_q)``.  Draws the summed gains
    of the ``(receivers,) + v.shape`` elements with :func:`mrc_gains`, then
    one normal per element for the noise.

    Returns ``(estimates, info)``: ``estimates`` has shape
    ``(receivers,) + v.shape`` and ``info['retries']`` counts the deep-fade
    retransmissions of all receivers.
    """
    v = np.asarray(v, dtype=np.float64)
    _check_link(power, copies)
    gains, retries = mrc_gains((receivers,) + v.shape, copies, rng, floor,
                               max_retries)
    gains *= power * distance ** (-pathloss)
    std = np.sqrt(np.reciprocal(gains, out=gains), out=gains)
    return v + std * rng.standard_normal(std.shape), {"retries": retries}


@dataclass(frozen=True)
class SnrMeasurement:
    """Realized signal/noise powers for one aggregation round."""

    signal_power: float
    noise_power: float
    ratio: float


def measure_global_snr(signal_sum, noise_sum, mode="MT"):
    """Per-round realized SNR of the aggregate: ||signal||^2 / ||noise||^2.

    For differential upload the caller's ``noise_sum`` already contains both
    uplink and downlink terms.  Zero noise reports an infinite ratio.
    """
    if mode not in ("MT", "MDT"):
        raise ConfigError("mode must be 'MT' or 'MDT'")
    signal_sum = np.asarray(signal_sum, dtype=np.float64)
    noise_sum = np.asarray(noise_sum, dtype=np.float64)
    if signal_sum.shape != noise_sum.shape:
        raise ConfigError("signal and noise sums must have equal lengths")
    sig = float(signal_sum @ signal_sum)
    noi = float(noise_sum @ noise_sum)
    ratio = math.inf if noi == 0.0 else sig / noi
    return SnrMeasurement(signal_power=sig, noise_power=noi, ratio=ratio)
