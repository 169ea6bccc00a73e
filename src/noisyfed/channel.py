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
consecutive failures the transmission errors out.  Each analog call draws
the fades of all its copies (and receivers) as one block with
:func:`draw_fades`, which redraws the deep fades of the whole block in
vectorized rounds, and then its receiver noise as one block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelError, CombiningError, ConfigError, PolicyError

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
    if spec.variance == 0.0:
        return np.zeros(size)
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


def _rayleigh(size, rng):
    """``|h|`` of ``size`` CN(0, 1) gains, the real parts drawn before the
    imaginary parts, each in C order."""
    mags = rng.standard_normal(size)
    mags *= mags
    imag = rng.standard_normal(size)
    imag *= imag
    mags += imag
    mags *= 0.5
    return np.sqrt(mags, out=mags)


def draw_fades(shape, rng, floor=INVERSION_FLOOR, max_retries=MAX_FADE_RETRIES):
    """Rayleigh small-scale magnitudes ``|h|`` with E|h|^2 = 1, none below
    ``floor``.

    Deep fades (``|h| < floor``) are redrawn in rounds over all still-deep
    elements, each round drawing their real parts, then their imaginary
    parts, in C order; an element still deep after ``max_retries`` redraws
    raises :class:`ChannelError`.  Returns ``(mags, retries)`` where ``retries``
    counts element redraws (each one a retransmission of that element).
    """
    mags = _rayleigh(shape, rng)
    flat = mags.reshape(-1)
    deep = np.flatnonzero(flat < floor)
    retries = 0
    for _ in range(max_retries):
        if not deep.size:
            break
        retries += deep.size
        flat[deep] = _rayleigh(deep.size, rng)
        deep = deep[flat[deep] < floor]
    if deep.size:
        raise ChannelError(
            f"deep fade persisted beyond {max_retries} retransmissions")
    return mags, retries


def analog_uplink_aggregate(models, power, rng, copies=1,
                            floor=INVERSION_FLOOR,
                            max_retries=MAX_FADE_RETRIES, noise_scale=1.0):
    """Over-the-air sum of simultaneous uploads under channel inversion.

    Every client pre-inverts its fade so each element arrives as
    ``sqrt(power)/K * sum_k models[k]`` plus unit-variance receiver noise; the
    returned vector is rescaled by ``1/sqrt(power)``, i.e. the client average
    plus noise of per-element variance ``1/(power * copies)``.  ``copies``
    independent receptions are averaged.  Inversion cancels the fade exactly
    (pathloss included), so the fades only decide deep-fade retransmissions.
    ``noise_scale=0`` disables receiver noise (test hook).

    Draws the ``(copies, K, d)`` fades with :func:`draw_fades`, then the
    ``(copies, d)`` receiver noise, from ``rng``.

    Returns ``(aggregate, info)`` with ``info['retries']`` counting deep-fade
    retransmissions.
    """
    models = np.atleast_2d(np.asarray(models, dtype=np.float64))
    n_clients, dim = models.shape
    if power <= 0:
        raise PolicyError("transmit power must be positive")
    if copies < 1:
        raise ConfigError("copies must be >= 1")

    _, retries = draw_fades((copies, n_clients, dim), rng, floor, max_retries)
    noise = rng.standard_normal((copies, dim))
    received = models.mean(axis=0) + noise_scale * noise / math.sqrt(power)
    return diversity_combine(received), {"retries": retries}


def analog_downlink_receive(v, power, rng, copies=1, receivers=1,
                            distance=1.0, pathloss=2.0, floor=INVERSION_FLOOR,
                            max_retries=MAX_FADE_RETRIES, noise_scale=1.0):
    """A broadcast of ``v`` as ``receivers`` clients each receive it: every
    copy equalized by its known gain, the copies combined.

    The receiver divides each copy by its known complex gain (same truncated
    inversion floor as the uplink), so copy q carries noise of per-element
    variance ``1/(power * distance**-pathloss * |h_q|^2)``.

    Draws the ``(receivers, copies) + v.shape`` fades with
    :func:`draw_fades`, then the noise of the same shape, from ``rng``.

    Returns ``(estimates, info)``: ``estimates`` has shape
    ``(receivers,) + v.shape`` and ``info['retries']`` counts the deep-fade
    retransmissions of all receivers.
    """
    v = np.asarray(v, dtype=np.float64)
    if power <= 0:
        raise PolicyError("transmit power must be positive")
    if copies < 1:
        raise ConfigError("copies must be >= 1")
    shape = (receivers, copies) + v.shape
    mags, retries = draw_fades(shape, rng, floor, max_retries)
    received = rng.standard_normal(shape)
    received *= noise_scale / math.sqrt(power * distance ** (-pathloss))
    received /= mags
    received += v
    return diversity_combine(np.moveaxis(received, 1, 0)), \
        {"retries": retries}


def diversity_combine(copies):
    """Average independent receptions; noise variance drops by the copy count.

    ``copies`` is a ``(copies, ...)`` array or a sequence of equal-shape
    receptions.
    """
    if isinstance(copies, np.ndarray):
        stack = copies.astype(np.float64, copy=False)
    else:
        copies = [np.asarray(c, dtype=np.float64) for c in copies]
        stack = np.stack(copies) if copies else np.empty(0)
    if len(stack) == 0:
        raise CombiningError("no copies to combine")
    return stack.mean(axis=0)


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
