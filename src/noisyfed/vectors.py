"""Parameter-vector arithmetic and distance accounting.

Model vectors are plain 1-D float64 numpy arrays.  All operations here are
pure; everything downstream (channels, engine, analysis) builds on them.
"""

import numpy as np

from .errors import AggregationError, ConfigError


def as_model_vector(values):
    """Coerce to a 1-D float64 array, checking finiteness."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ConfigError(f"model vector must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError("model vector contains non-finite entries")
    return v


def mean_of(vectors):
    """Coordinatewise arithmetic mean of a non-empty collection of vectors."""
    vectors = list(vectors)
    if not vectors:
        raise AggregationError("cannot average an empty collection of models")
    stack = np.stack([as_model_vector(v) for v in vectors])
    if stack.ndim != 2:
        raise AggregationError("models have inconsistent lengths")
    return stack.mean(axis=0)


def squared_distance(a, b):
    """Sum of squared coordinatewise differences."""
    a = as_model_vector(a)
    b = as_model_vector(b)
    if a.shape != b.shape:
        raise ConfigError(f"vectors have mismatched shapes {a.shape} vs {b.shape}")
    diff = a - b
    return float(diff @ diff)
