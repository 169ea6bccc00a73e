import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyfed import AggregationError, ConfigError, mean_of, squared_distance

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def test_mean_of_singleton():
    assert np.array_equal(mean_of([np.array([1.0, 1.0])]), [1.0, 1.0])


def test_mean_of_symmetry():
    out = mean_of([np.array([0.0, 2.0]), np.array([2.0, 0.0])])
    assert np.array_equal(out, [1.0, 1.0])


def test_mean_of_matches_naive_sum_oracle(rng):
    vectors = [rng.normal(size=7) for _ in range(10)]
    naive = sum(vectors) / len(vectors)
    assert np.max(np.abs(mean_of(vectors) - naive)) <= 1e-12


def test_mean_of_permutation_invariant(rng):
    vectors = [rng.normal(size=5) for _ in range(9)]
    a = mean_of(vectors)
    b = mean_of(vectors[::-1])
    assert np.max(np.abs(a - b)) <= 1e-12


def test_mean_of_empty_raises():
    with pytest.raises(AggregationError):
        mean_of([])


def test_squared_distance_identity():
    v = np.array([1.0, -2.0, 3.0])
    assert squared_distance(v, v) == 0.0


def test_squared_distance_pythagorean():
    assert squared_distance(np.zeros(2), np.array([3.0, 4.0])) == 25.0


def test_squared_distance_coordinatewise_oracle(rng):
    a = rng.normal(size=11)
    b = rng.normal(size=11)
    oracle = sum((x - y) ** 2 for x, y in zip(a, b))
    assert squared_distance(a, b) == pytest.approx(oracle, rel=1e-12)


@given(st.lists(finite_floats, min_size=1, max_size=6),
       st.lists(finite_floats, min_size=6, max_size=6))
@settings(max_examples=50, deadline=None)
def test_squared_distance_symmetric_nonnegative(a_vals, b_vals):
    a = np.array(a_vals)
    b = np.array(b_vals[:len(a_vals)])
    d_ab = squared_distance(a, b)
    assert d_ab >= 0.0
    assert d_ab == squared_distance(b, a)
    if np.array_equal(a, b):
        assert d_ab == 0.0


def test_squared_distance_dimension_mismatch():
    with pytest.raises(ConfigError):
        squared_distance(np.zeros(2), np.zeros(3))
