"""Tests for ParEGO scalarization and acquisition functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.acquisition import expected_improvement
from repro.optim.scalarize import (
    parego_scalar,
    parego_scalars,
    sample_weight_vector,
    uniform_weights,
)


class TestParegoScalar:
    def test_eq1_structure(self):
        """v = max_j(w_j y_j) + rho * Y.W, rho = 0.2 by default."""
        y = [0.4, 0.8, 0.2, 0.6]
        w = [0.25, 0.25, 0.25, 0.25]
        expected = 0.25 * 0.8 + 0.2 * (np.dot(y, w))
        assert parego_scalar(y, w) == pytest.approx(expected)

    def test_custom_rho(self):
        y = [1.0, 0.0]
        w = [0.5, 0.5]
        assert parego_scalar(y, w, rho=0.0) == pytest.approx(0.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            parego_scalar([1, 2], [0.6, 0.6])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            parego_scalar([1, 2], [1.5, -0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            parego_scalar([1, 2, 3], [0.5, 0.5])

    def test_infinite_objectives_give_inf(self):
        assert parego_scalar([np.inf, 0], [0.5, 0.5]) == float("inf")

    def test_vectorized_matches_scalar(self):
        matrix = np.array([[0.1, 0.9], [0.5, 0.5]])
        w = [0.3, 0.7]
        values = parego_scalars(matrix, w)
        assert values[0] == pytest.approx(parego_scalar(matrix[0], w))
        assert values[1] == pytest.approx(parego_scalar(matrix[1], w))

    @given(
        st.lists(st.floats(0, 1), min_size=4, max_size=4),
        st.lists(st.floats(0, 1), min_size=4, max_size=4),
    )
    @settings(max_examples=50)
    def test_monotone_in_objectives(self, y, delta):
        """Worsening any objective never lowers the fidelity scalar."""
        w = uniform_weights(4)
        worse = [a + b for a, b in zip(y, delta)]
        assert parego_scalar(worse, w) >= parego_scalar(y, w) - 1e-12


class TestWeightSampling:
    def test_sums_to_one(self, rng):
        for _ in range(10):
            w = sample_weight_vector(4, rng)
            assert w.sum() == pytest.approx(1.0)
            assert np.all(w >= 0)

    def test_uniform_weights(self):
        assert uniform_weights(4).tolist() == [0.25] * 4

    def test_varies(self, rng):
        a = sample_weight_vector(3, rng)
        b = sample_weight_vector(3, rng)
        assert not np.allclose(a, b)


class TestExpectedImprovement:
    def test_zero_std_no_improvement(self):
        ei = expected_improvement(np.array([1.0]), np.array([0.0]), best=0.5)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_better_mean_higher_ei(self):
        ei = expected_improvement(
            np.array([0.1, 0.9]), np.array([0.1, 0.1]), best=1.0
        )
        assert ei[0] > ei[1]

    def test_uncertainty_raises_ei_at_equal_mean(self):
        ei = expected_improvement(
            np.array([1.0, 1.0]), np.array([0.01, 1.0]), best=1.0
        )
        assert ei[1] > ei[0]

    def test_non_negative(self, rng):
        mean = rng.normal(0, 1, 50)
        std = rng.uniform(0.01, 1, 50)
        assert np.all(expected_improvement(mean, std, best=0.0) >= 0)

    def test_deep_improvement_close_to_gap(self):
        ei = expected_improvement(np.array([0.0]), np.array([1e-6]), best=10.0)
        assert ei[0] == pytest.approx(10.0, rel=0.01)


def _ei_by_scipy_stats(mean, std, best, xi=0.01):
    """EI as it read before ``src/`` stopped importing ``scipy.stats``."""
    from scipy import stats

    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = best - mean - xi
    z = improvement / std
    return improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)


class TestExpectedImprovementMatchesScipyStats:
    """Bit for bit, so no search digest moved when the import went."""

    @staticmethod
    def assert_identical(mean, std, best):
        with np.errstate(all="ignore"):
            ours = expected_improvement(mean, std, best)
            reference = _ei_by_scipy_stats(mean, std, best)
        assert np.shape(ours) == np.shape(reference)
        assert np.asarray(ours).tobytes() == np.asarray(reference).tobytes()

    def test_scalar_best(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 400))
            mean = rng.normal(0, 1, n)
            std = rng.uniform(0, 2, n) * (rng.random(n) > 0.1)  # some exact 0
            self.assert_identical(mean, std, float(mean.min()))

    def test_one_best_per_slot(self, rng):
        for _ in range(100):
            slots, pool = int(rng.integers(1, 12)), int(rng.integers(1, 300))
            means = rng.normal(0, 1, (slots, pool))
            stds = rng.uniform(0, 2, (slots, pool)) * (rng.random((slots, pool)) > 0.1)
            self.assert_identical(means, stds, means.min(axis=1)[:, None])

    def test_strided_and_python_scalar_inputs(self, rng):
        means = rng.normal(0, 1, (6, 64))
        stds = rng.uniform(0.01, 2, (6, 64))
        self.assert_identical(means[:, ::3], stds[:, ::3], 0.2)
        self.assert_identical(means.T, stds.T, means.min(axis=1))
        self.assert_identical(0.3, 0.5, 0.4)

    @pytest.mark.parametrize("z", [40.0, -40.0, np.inf, -np.inf, np.nan])
    def test_extreme_z(self, z):
        """At ``std = 1``, ``best = 0`` the middle entry's z is the parameter."""
        mean = np.array([0.0, -0.01 - z, 1.0])  # z = best - mean - xi
        self.assert_identical(mean, np.ones(3), 0.0)
        self.assert_identical(mean, np.zeros(3), 0.0)  # clamped std, |z| huge
