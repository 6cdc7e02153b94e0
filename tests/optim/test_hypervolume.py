"""Tests for hypervolume computation, cross-checked by Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.hypervolume import hypervolume, reference_point_from
from tests.optim.hypervolume_oracle import hypervolume_monte_carlo


class TestExactKnownValues:
    def test_single_point_2d(self):
        assert hypervolume(np.array([[1.0, 1.0]]), [3, 3]) == pytest.approx(4.0)

    def test_single_point_3d(self):
        assert hypervolume(np.array([[1, 1, 1]]), [2, 3, 4]) == pytest.approx(6.0)

    def test_two_point_staircase(self):
        points = np.array([[1, 2], [2, 1]])
        # union of two 2x... boxes: 2*3 area? reference (4,4):
        # box1 (1,2): 3*2=6; box2 (2,1): 2*3=6; overlap (2,2)-(4,4)=4 -> 8
        assert hypervolume(points, [4, 4]) == pytest.approx(8.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume(np.array([[1, 1]]), [4, 4])
        with_dominated = hypervolume(np.array([[1, 1], [2, 2]]), [4, 4])
        assert with_dominated == pytest.approx(base)

    def test_point_outside_reference_ignored(self):
        assert hypervolume(np.array([[5, 5]]), [4, 4]) == 0.0

    def test_infinite_points_ignored(self):
        points = np.array([[1, 1], [np.inf, 0]])
        assert hypervolume(points, [4, 4]) == pytest.approx(9.0)

    def test_empty(self):
        assert hypervolume(np.zeros((0, 2)), [1, 1]) == 0.0

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError):
            hypervolume(np.array([[1, 2]]), [1, 2, 3])

    def test_1d(self):
        assert hypervolume(np.array([[2.0], [5.0]]), [10.0]) == pytest.approx(8.0)

    def test_4d_box(self):
        assert hypervolume(np.array([[1, 1, 1, 1]]), [2, 2, 2, 2]) == pytest.approx(
            1.0
        )


@given(
    st.lists(
        st.tuples(st.floats(0, 0.9), st.floats(0, 0.9), st.floats(0, 0.9)),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=20, deadline=None)
def test_exact_matches_monte_carlo_3d(raw_points):
    points = np.array(raw_points)
    reference = [1.0, 1.0, 1.0]
    exact = hypervolume(points, reference)
    estimate = hypervolume_monte_carlo(points, reference, num_samples=120_000, seed=1)
    assert exact == pytest.approx(estimate, abs=0.02)


@given(
    st.lists(
        st.tuples(st.floats(0, 0.9), st.floats(0, 0.9)),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=30)
def test_monotone_in_points(raw_points):
    """Adding points never decreases hypervolume."""
    points = np.array(raw_points)
    reference = [1.0, 1.0]
    partial = hypervolume(points[:-1], reference)
    full = hypervolume(points, reference)
    assert full >= partial - 1e-12


class TestReferencePoint:
    def test_beyond_worst(self):
        points = np.array([[1, 5], [3, 2]])
        reference = reference_point_from(points)
        assert np.all(reference > points.max(axis=0))

    def test_skips_infinite(self):
        points = np.array([[1, 1], [np.inf, 2]])
        reference = reference_point_from(points)
        assert np.all(np.isfinite(reference))

    def test_all_infinite_raises(self):
        with pytest.raises(ValueError):
            reference_point_from(np.array([[np.inf, np.inf]]))

    def test_beyond_worst_when_all_negative(self):
        """A multiplicative margin would move *inward* for negative worsts."""
        points = np.array([[-3.0, -5.0], [-1.0, -8.0]])
        reference = reference_point_from(points)
        assert np.all(reference > points.max(axis=0))
        # every point must remain strictly inside the reference box
        assert np.all(points < reference[None, :])

    def test_beyond_worst_mixed_signs(self):
        points = np.array([[-2.0, 4.0], [1.0, -3.0], [0.0, 0.0]])
        reference = reference_point_from(points)
        assert np.all(reference > points.max(axis=0))

    def test_zero_worst_still_padded(self):
        points = np.array([[-1.0, 0.0], [0.0, -2.0]])
        reference = reference_point_from(points)
        assert np.all(reference > 0.0)

    def test_no_point_clipped_negative_values(self):
        """All-negative fronts keep positive hypervolume under the derived
        reference — the regression the additive margin fixes."""
        rng = np.random.default_rng(0)
        points = -rng.random((8, 3)) - 0.5  # strictly negative objectives
        reference = reference_point_from(points)
        exact = hypervolume(points, reference)
        assert exact > 0.0
        estimate = hypervolume_monte_carlo(
            points, reference, num_samples=150_000, seed=2
        )
        assert exact == pytest.approx(estimate, rel=0.05)

    def test_monte_carlo_cross_check_mixed_signs(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(-1.0, 1.0, (10, 2))
        reference = reference_point_from(points)
        exact = hypervolume(points, reference)
        estimate = hypervolume_monte_carlo(
            points, reference, num_samples=150_000, seed=3
        )
        assert exact == pytest.approx(estimate, rel=0.05, abs=0.01)
