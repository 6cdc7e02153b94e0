"""Tests (incl. property-based) for integer math helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.intmath import (
    divisors,
    nearest_divisor,
    power_two_three_grid,
    round_up_div,
    step_on_grid,
)


class TestRoundUpDiv:
    @pytest.mark.parametrize(
        "n,d,expected", [(0, 1, 0), (1, 1, 1), (7, 2, 4), (8, 2, 4), (9, 2, 5)]
    )
    def test_values(self, n, d, expected):
        assert round_up_div(n, d) == expected

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            round_up_div(1, 0)

    def test_negative_numerator_rejected(self):
        with pytest.raises(ValueError):
            round_up_div(-1, 2)

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_matches_ceil(self, n, d):
        assert round_up_div(n, d) == -(-n // d)


class TestDivisors:
    def test_one(self):
        assert divisors(1) == (1,)

    def test_prime(self):
        assert divisors(13) == (1, 13)

    def test_composite(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(1, 5000))
    @settings(max_examples=60)
    def test_all_divide_and_sorted(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert list(ds) == sorted(ds)
        assert ds[0] == 1 and ds[-1] == n


class TestNearestDivisor:
    def test_exact(self):
        assert nearest_divisor(12, 4) == 4

    def test_between(self):
        assert nearest_divisor(12, 5) in (4, 6)

    @given(st.integers(1, 2000), st.integers(1, 3000))
    @settings(max_examples=60)
    def test_result_divides(self, n, target):
        d = nearest_divisor(n, target)
        assert n % d == 0
        # no divisor is strictly closer
        assert all(abs(d - target) <= abs(other - target) for other in divisors(n))


class TestPowerTwoThreeGrid:
    def test_small(self):
        assert power_two_three_grid(1, 1) == (1, 2, 3, 6)

    def test_sorted_unique(self):
        grid = power_two_three_grid(5, 5)
        assert list(grid) == sorted(set(grid))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            power_two_three_grid(-1, 0)


class TestStepOnGrid:
    GRID = divisors(360)

    def test_moves_one_or_two_places_and_never_stays(self):
        rng = np.random.default_rng(0)
        for current in self.GRID[2:-2]:
            index = self.GRID.index(current)
            for _ in range(20):
                stepped = step_on_grid(self.GRID, current, rng)
                assert abs(self.GRID.index(stepped) - index) in (1, 2)

    def test_clamps_at_both_ends(self):
        rng = np.random.default_rng(1)
        low = {step_on_grid(self.GRID, self.GRID[0], rng) for _ in range(40)}
        high = {step_on_grid(self.GRID, self.GRID[-1], rng) for _ in range(40)}
        assert low == set(self.GRID[:3])
        assert high == set(self.GRID[-3:])

    def test_off_grid_value_steps_from_the_first_entry(self):
        rng = np.random.default_rng(2)
        assert 7 not in self.GRID
        stepped = {step_on_grid(self.GRID, 7, rng) for _ in range(40)}
        assert stepped == set(self.GRID[:3])

    def test_draws_are_the_legacy_sequence(self):
        """Same draws, same order as the ``grid.index`` body it replaced:
        offsets from ``integers(-2, 3)`` until one is non-zero."""
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(50):
            stepped = step_on_grid(self.GRID, 12, rng)
            offset = 0
            while offset == 0:
                offset = int(twin.integers(-2, 3))
            index = self.GRID.index(12) + offset
            assert stepped == self.GRID[max(0, min(len(self.GRID) - 1, index))]
        assert rng.bit_generator.state == twin.bit_generator.state
