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
consecutive failures the transmission errors out.
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


def draw_fades(shape, rng, floor=INVERSION_FLOOR, max_retries=MAX_FADE_RETRIES):
    """Rayleigh small-scale gains with E|h|^2 = 1, redrawn above ``floor``.

    Returns ``(gains, retries)`` where ``retries`` counts redraws (each one a
    retransmission of that element).
    """
    gains = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)
    retries = _redraw_deep_fades(gains, lambda n: rng.normal(size=n), floor,
                                 max_retries)
    return gains, retries


def _redraw_deep_fades(gains, normal, floor, max_retries):
    """Redraw the elements of ``gains`` below ``floor`` in place, in rounds.

    ``normal(n)`` supplies the next ``n`` standard normals of the stream; each
    round takes the real parts of all deep-faded elements, then their
    imaginary parts.  Returns the number of element redraws.
    """
    retries = 0
    mask = np.abs(gains) < floor
    attempts = 0
    while mask.any():
        attempts += 1
        if attempts > max_retries:
            raise ChannelError(
                f"deep fade persisted beyond {max_retries} retransmissions")
        n_bad = int(mask.sum())
        retries += n_bad
        redraw = (normal(n_bad) + 1j * normal(n_bad)) / math.sqrt(2.0)
        gains[mask] = redraw
        mask = np.abs(gains) < floor
    return retries


# Copies checked for deep fades per vectorized pass; bounds the read-ahead.
_COPY_CHUNK = 16


class _NormalStream:
    """Standard normals of ``rng`` read ahead in blocks, handed out in order.

    ``Generator.normal(size=a)`` followed by ``normal(size=b)`` yields the same
    values as ``standard_normal(a + b)``, so reading ahead does not change the
    stream.  The read-ahead never exceeds what the caller will still take,
    except on an error path, where :meth:`restore` rewinds ``rng``.
    """

    def __init__(self, rng):
        self.rng = rng
        self.state = rng.bit_generator.state
        self.drawn = 0
        self.buf = np.empty(0)
        self.pos = 0

    def take(self, n):
        """The next ``n`` values of the stream."""
        short = self.pos + n - self.buf.size
        if short > 0:
            fresh = self.rng.standard_normal(short)
            self.drawn += short
            self.buf = np.concatenate((self.buf[self.pos:], fresh)) \
                if self.pos < self.buf.size else fresh
            self.pos = 0
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def restore(self):
        """Leave ``rng`` just past the values taken, as if none were read ahead."""
        taken = self.drawn - (self.buf.size - self.pos)
        self.rng.bit_generator.state = self.state
        self.rng.standard_normal(taken)


def _draw_copies(rng, fade_shape, noise_size, copies, floor, max_retries,
                 keep_fades):
    """Fades and receiver noise of ``copies`` independent receptions.

    Draws what a loop of ``draw_fades(fade_shape, ...)`` followed by
    ``rng.normal(size=noise_size)`` per copy draws, in the same stream order
    and with the same deep-fade redraws, errors and generator position, but a
    chunk of copies per numpy pass.  Returns ``(mags, noise, retries)``:
    ``mags`` holds each copy's final ``|h|`` (``None`` unless ``keep_fades``)
    and ``noise`` is ``(copies, noise_size)``.
    """
    n_fades = math.prod(fade_shape)
    per_copy = 2 * n_fades + noise_size
    mags = np.empty((copies, n_fades)) if keep_fades else None
    noise = np.empty((copies, noise_size))
    retries = 0
    normals = _NormalStream(rng)
    done = 0
    try:
        while done < copies:
            m = min(_COPY_CHUNK, copies - done)
            block = normals.take(m * per_copy).reshape(m, per_copy)
            start = normals.pos - m * per_copy
            gains = (block[:, :n_fades] + 1j * block[:, n_fades:2 * n_fades]) \
                / math.sqrt(2.0)
            chunk_mags = np.abs(gains)
            deep = (chunk_mags < floor).any(axis=1)
            # Copies before the first deep fade are final as drawn.
            j = int(deep.argmax()) if deep.any() else m
            if keep_fades:
                mags[done:done + j] = chunk_mags[:j]
            noise[done:done + j] = block[:j, 2 * n_fades:]
            done += j
            if j == m:
                continue
            # Replay the deep-faded copy: its redraws come right after its
            # fades in the stream, which shifts every later copy.
            normals.pos = start + j * per_copy + 2 * n_fades
            faded = gains[j]
            retries += _redraw_deep_fades(faded, normals.take, floor,
                                          max_retries)
            if keep_fades:
                mags[done] = np.abs(faded)
            noise[done] = normals.take(noise_size)
            done += 1
    except ChannelError:
        normals.restore()
        raise
    return mags, noise, retries


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

    Each copy draws its ``(K, d)`` fades, real then imaginary parts, with
    their redraws, then its ``d`` noise values, from ``rng``.

    Returns ``(aggregate, info)`` with ``info['retries']`` counting deep-fade
    retransmissions.
    """
    models = np.atleast_2d(np.asarray(models, dtype=np.float64))
    n_clients, dim = models.shape
    if power <= 0:
        raise PolicyError("transmit power must be positive")
    if copies < 1:
        raise ConfigError("copies must be >= 1")

    mean = models.mean(axis=0)
    _, noise, retries = _draw_copies(rng, (n_clients, dim), dim, copies,
                                     floor, max_retries, keep_fades=False)
    received = mean + noise_scale * noise / math.sqrt(power)
    return diversity_combine(received), {"retries": retries}


def analog_downlink_receive(v, power, rng, copies=1, distance=1.0,
                            pathloss=2.0, floor=INVERSION_FLOOR,
                            max_retries=MAX_FADE_RETRIES, noise_scale=1.0):
    """One client's reception of a broadcast, equalized per copy and combined.

    The receiver divides each copy by its known complex gain (same truncated
    inversion floor as the uplink), so copy q carries noise of per-element
    variance ``1/(power * distance**-pathloss * |h_q|^2)``.

    Each copy draws its fades, real then imaginary parts, with their redraws,
    then its noise, from ``rng``.

    Returns ``(estimate, info)`` with ``info['retries']`` counting deep-fade
    retransmissions.
    """
    v = np.asarray(v, dtype=np.float64)
    if power <= 0:
        raise PolicyError("transmit power must be positive")
    if copies < 1:
        raise ConfigError("copies must be >= 1")
    gain2 = distance ** (-pathloss)
    mags, noise, retries = _draw_copies(rng, v.shape, v.size, copies, floor,
                                        max_retries, keep_fades=True)
    noise_std = noise_scale / np.sqrt(power * gain2 * mags ** 2)
    received = v + (noise_std * noise).reshape((copies,) + v.shape)
    return diversity_combine(received), {"retries": retries}


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
