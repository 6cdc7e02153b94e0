"""The ``iteration_state`` codec: a committed journal folds back into the
optimizer that wrote it.

Each committed iteration of a tracked UNICO run ends with one state line
(:mod:`repro.core.checkpoint`); :func:`~repro.core.checkpoint.fold_journal`
replays them onto a fresh optimizer.  These tests hold the fold to the
live optimizer field by field, bit for bit, and hold resumed runs to the
budget and the result of one uninterrupted run.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core import Unico, UnicoConfig, fold_journal
from repro.costmodel import MaestroEngine
from repro.errors import ConfigurationError
from repro.tracking import (
    JournalTracker,
    RunStore,
    committed_journal,
    replay_iteration_records,
)
from tests.tracking.test_tracker_resume import _KillAfter


def _fresh(network, space, max_iterations=4, include_robustness=True, tracker=None):
    return Unico(
        space,
        network,
        MaestroEngine(network),
        UnicoConfig(
            batch_size=4,
            max_iterations=max_iterations,
            max_budget=16,
            include_robustness=include_robustness,
        ),
        power_cap_w=100.0,
        seed=21,
        tracker=tracker,
    )


def _tracked(network, space, tmp_path, max_iterations=2):
    run = RunStore(tmp_path / "runs").create_run({"method": "unico"})
    unico = _fresh(
        network, space, max_iterations=max_iterations, tracker=JournalTracker(run)
    )
    unico.optimize()
    return run, unico


def _round_trip(network, space, tmp_path):
    """A tracked two-iteration run and a fresh optimizer folded from it."""
    run, original = _tracked(network, space, tmp_path)
    restored = fold_journal(_fresh(network, space), committed_journal(run))
    return original, restored


class TestCheckpointRoundTrip:
    def test_resume_equals_uninterrupted(self, tiny_network, edge_space, tmp_path):
        """Killed after 2 of 4 iterations, folded and resumed, the run
        evaluates what 4 uninterrupted iterations do: the same front,
        timeline, totals and iteration records."""
        straight = _fresh(tiny_network, edge_space).optimize()
        run = RunStore(tmp_path / "runs").create_run({"method": "unico"})
        with pytest.raises(KeyboardInterrupt):
            _fresh(tiny_network, edge_space, tracker=_KillAfter(run, 2)).optimize()
        committed = committed_journal(run)
        resumed = fold_journal(_fresh(tiny_network, edge_space), committed)
        assert resumed.completed_iterations == 2
        resumed.tracker = JournalTracker(run, resume=committed)
        result = resumed.optimize()

        assert np.array_equal(result.pareto.points, straight.pareto.points)
        assert (result.total_time_s, result.total_hw_evaluated,
                result.total_engine_queries) == (straight.total_time_s,
                                                 straight.total_hw_evaluated,
                                                 straight.total_engine_queries)
        assert [
            (e.time_s, e.ppa_vector.tolist(), e.feasible) for e in result.timeline
        ] == [
            (e.time_s, e.ppa_vector.tolist(), e.feasible) for e in straight.timeline
        ]
        assert result.extras["iteration_records"] == (
            straight.extras["iteration_records"]
        )
        assert replay_iteration_records(run.journal_path) == (
            straight.extras["iteration_records"]
        )

    def test_repeated_save_load_keeps_budget(
        self, tiny_network, edge_space, tmp_path
    ):
        """Killed after every iteration and resumed each time, the run still
        spends exactly the configured budget and ends where a straight run
        does; ``config.max_iterations`` is never touched."""
        straight = _fresh(tiny_network, edge_space).optimize()
        run = RunStore(tmp_path / "runs").create_run({"method": "unico"})
        with pytest.raises(KeyboardInterrupt):
            _fresh(tiny_network, edge_space, tracker=_KillAfter(run, 1)).optimize()
        for completed in (1, 2, 3):
            committed = committed_journal(run)
            unico = fold_journal(_fresh(tiny_network, edge_space), committed)
            assert unico.completed_iterations == completed
            assert unico.config.max_iterations == 4
            if completed < 3:
                unico.tracker = _KillAfter(run, completed + 1, resume=committed)
                with pytest.raises(KeyboardInterrupt):
                    unico.optimize()
        unico.tracker = JournalTracker(run, resume=committed)
        result = unico.optimize()
        assert [r.iteration for r in result.extras["iteration_records"]] == [
            0, 1, 2, 3,
        ]
        assert replay_iteration_records(run.journal_path) == (
            straight.extras["iteration_records"]
        )
        assert np.array_equal(result.pareto.points, straight.pareto.points)
        assert (result.total_time_s, result.total_hw_evaluated,
                result.total_engine_queries) == (straight.total_time_s,
                                                 straight.total_hw_evaluated,
                                                 straight.total_engine_queries)

    def test_training_set_restored(self, tiny_network, edge_space, tmp_path):
        original, restored = _round_trip(tiny_network, edge_space, tmp_path)
        assert [edge_space.config_key(c) for c in restored.train_configs] == [
            edge_space.config_key(c) for c in original.train_configs
        ]
        assert np.array_equal(
            np.vstack(restored.train_objectives_raw),
            np.vstack(original.train_objectives_raw),
        )
        assert np.array_equal(restored.normalizer._low, original.normalizer._low)
        assert np.array_equal(restored.normalizer._high, original.normalizer._high)

    def test_selector_state_restored(self, tiny_network, edge_space, tmp_path):
        original, restored = _round_trip(tiny_network, edge_space, tmp_path)
        assert restored.selector.uul == original.selector.uul
        assert restored.selector.best_scalar == original.selector.best_scalar
        assert (
            restored.selector._distance_archive
            == original.selector._distance_archive
        )
        assert (
            restored.sampler.rng.bit_generator.state
            == original.sampler.rng.bit_generator.state
        )

    def test_timeline_and_records_restored(self, tiny_network, edge_space, tmp_path):
        original, restored = _round_trip(tiny_network, edge_space, tmp_path)
        assert restored.completed_iterations == original.completed_iterations == 2
        assert restored.iteration_records == original.iteration_records
        assert [
            (e.time_s, e.ppa_vector.tolist(), e.feasible) for e in restored.timeline
        ] == [
            (e.time_s, e.ppa_vector.tolist(), e.feasible) for e in original.timeline
        ]
        assert restored._trial_counter == original._trial_counter
        assert restored.total_hw_evaluated == original.total_hw_evaluated
        assert restored.restored_engine_queries == original.engine.num_queries
        assert restored.clock.now_s == original.clock.now_s
        assert np.array_equal(restored._hv_reference, original._hv_reference)

    def test_objective_count_mismatch_rejected(
        self, tiny_network, edge_space, tmp_path
    ):
        run, _original = _tracked(
            tiny_network, edge_space, tmp_path, max_iterations=1
        )
        without_r = _fresh(tiny_network, edge_space, include_robustness=False)
        with pytest.raises(ConfigurationError, match="objective count"):
            fold_journal(without_r, committed_journal(run))


class TestRobustnessSerialization:
    def test_v2_round_trips_full_robustness(
        self, tiny_network, edge_space, tmp_path
    ):
        """The folded front keeps every design's PPA and its full
        robustness geometry (delta, theta, sub-optimal PPA)."""
        original, restored = _round_trip(tiny_network, edge_space, tmp_path)
        assert np.array_equal(restored.pareto.points, original.pareto.points)
        assert len(restored.pareto.items) == len(original.pareto.items)
        for ours, theirs in zip(restored.pareto.items, original.pareto.items):
            assert edge_space.config_key(ours.hw) == edge_space.config_key(theirs.hw)
            assert asdict(ours.robustness) == asdict(theirs.robustness)
            assert (ours.ppa.latency_s, ours.ppa.energy_j, ours.ppa.power_w,
                    ours.ppa.area_mm2) == (theirs.ppa.latency_s,
                                           theirs.ppa.energy_j,
                                           theirs.ppa.power_w,
                                           theirs.ppa.area_mm2)
