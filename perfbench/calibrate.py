"""The machine's speed, from a fixed probe timed between the benchmark's calls.

On a shared machine the CPU speed a process gets drifts by 20-60% over
seconds to minutes, and it moves the probe and the program alike: while the
program's passes slow down, so does the probe.  The time metrics are therefore
reported at the reference speed: a time ``t`` measured next to probe time
``p`` is reported as ``t * REFERENCE_S / p``.  The probe is the same code on
every commit, so a change of the program moves the reported time as much as
it moves the raw one.

The probe does what noisyfed's hot loops do, with code of its own: mini-batch
SGD steps on a 40 x 20 least-squares problem, a fresh seeded generator every
few steps, and a finiteness check per step.
"""

import statistics
import time

import numpy as np

# The probe's median chunk time on the reference machine (a shared 2-core
# Intel Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.009
CHUNKS = 5
STEPS = 300

_DATA = np.random.default_rng(2)
_X = _DATA.standard_normal((40, 20))
_Y = _DATA.standard_normal(40)


def _chunk():
    w = np.zeros(20)
    for i in range(STEPS):
        if i % 5 == 0:
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=7, spawn_key=(1, i % 10, i)))
        rows = rng.integers(0, 40, size=4)
        xb = _X[rows]
        w = w - 0.01 * (xb.T @ (xb @ w - _Y[rows]) / 4)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("speed probe diverged")
    return w


def probe():
    """Median seconds of a fixed chunk of work, over ``CHUNKS`` chunks."""
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds, probes):
    """``seconds`` scaled to the reference speed by the mean of ``probes``."""
    return seconds * REFERENCE_S / statistics.fmean(probes)
