"""Tests for the simulated wall clock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.clock import SimulatedClock


class TestAdvance:
    def test_accumulates(self):
        clock = SimulatedClock()
        clock.advance(10.0)
        clock.advance(5.0)
        assert clock.now_s == 15.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_labels_tracked(self):
        clock = SimulatedClock()
        clock.advance(3.0, label="a")
        clock.advance(4.0, label="a")
        clock.advance(1.0, label="b")
        assert clock.total("a") == 7.0
        assert clock.total("b") == 1.0
        assert clock.total("missing") == 0.0

    def test_keeps_totals_not_a_log(self):
        """Memory stays flat however many charges a long search's clock
        takes: one running total per label, no per-charge record."""
        clock = SimulatedClock()
        for _ in range(1000):
            clock.advance(1.0, label="x")
        assert clock.now_s == 1000.0
        assert clock.total("x") == 1000.0
        assert not hasattr(clock, "events")
        assert set(vars(clock)) == {"workers", "_now_s", "_totals"}


class TestAdvanceParallel:
    def test_single_worker_is_sum(self):
        clock = SimulatedClock(workers=1)
        clock.advance_parallel([3.0, 2.0, 1.0])
        assert clock.now_s == 6.0

    def test_enough_workers_is_max(self):
        clock = SimulatedClock(workers=3)
        clock.advance_parallel([3.0, 2.0, 1.0])
        assert clock.now_s == 3.0

    def test_two_workers_lpt(self):
        clock = SimulatedClock(workers=2)
        clock.advance_parallel([3.0, 3.0, 2.0, 2.0])
        assert clock.now_s == 5.0

    def test_empty_batch_noop(self):
        clock = SimulatedClock(workers=2)
        clock.advance_parallel([])
        assert clock.now_s == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock(workers=2).advance_parallel([1.0, -1.0])

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
        st.integers(1, 8),
    )
    @settings(max_examples=60)
    def test_makespan_bounds(self, durations, workers):
        """Parallel makespan is between max(durations) and sum(durations)."""
        clock = SimulatedClock(workers=workers)
        clock.advance_parallel(durations)
        assert clock.now_s >= max(durations) - 1e-9
        assert clock.now_s <= sum(durations) + 1e-9


class TestLifecycle:
    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            SimulatedClock(workers=0)

    def test_reset(self):
        clock = SimulatedClock()
        clock.advance(5.0, label="x")
        clock.reset()
        assert clock.now_s == 0.0
        assert clock.total("x") == 0.0
        clock.advance(2.0, label="x")
        assert clock.total("x") == 2.0
