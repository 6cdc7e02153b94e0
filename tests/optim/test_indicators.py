"""Tests for the IGD quality indicator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.optim.indicators import inverted_generational_distance

FRONT = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])


class TestGDAndIGD:
    def test_zero_when_identical(self):
        assert inverted_generational_distance(FRONT, FRONT) == 0.0

    def test_igd_punishes_missing_coverage(self):
        partial = FRONT[:1]  # only one corner achieved
        full = FRONT
        assert inverted_generational_distance(partial, full) > (
            inverted_generational_distance(full, full)
        )

    def test_empty_achieved_infinite(self):
        assert inverted_generational_distance(np.zeros((0, 2)), FRONT) == float(
            "inf"
        )

    def test_infinite_rows_dropped(self):
        noisy = np.vstack([FRONT, [[np.inf, 0.0]]])
        assert inverted_generational_distance(noisy, FRONT) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            inverted_generational_distance(FRONT, np.zeros((0, 2)))


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.just(3)),
        elements=st.floats(0, 10),
    )
)
@settings(max_examples=40)
def test_indicator_identities(points):
    """A self-comparison is exact: IGD = 0."""
    assert inverted_generational_distance(points, points) == pytest.approx(
        0.0, abs=1e-9
    )
