"""Journal -> dataset extraction: dedup, damage tolerance, run splits."""

import json

import numpy as np
import pytest

from repro.costmodel import MaestroEngine
from repro.learned import build_dataset, feature_dim, split_by_run
from repro.learned.dataset import SAMPLE_SCHEMA
from repro.mapping.gemm_mapping import GemmMappingSpace
from repro.tracking import EventJournal, JournalSampleSink, RunStore


def _record_run(store, network, hw, seed, batch=16):
    """One tracked pseudo-run: journal engine_sample events for a batch."""
    run = store.create_run({"method": "test", "seed": seed})
    journal = EventJournal(run.journal_path)
    engine = MaestroEngine(network)
    engine.sample_sink = JournalSampleSink(journal)
    layer_name = next(iter(engine.layer_shapes))
    shape, _count = engine.layer_shapes[layer_name]
    space = GemmMappingSpace(shape)
    rng = np.random.default_rng(seed)
    mappings = [space.sample(rng) for _ in range(batch)]
    engine.evaluate_layers(hw, [(m, layer_name) for m in mappings])
    journal.close()
    return run, mappings


class TestBuildDataset:
    def test_extracts_samples_with_exact_features(
        self, tiny_network, sample_hw, tmp_path
    ):
        store = RunStore(tmp_path / "runs")
        _run, mappings = _record_run(store, tiny_network, sample_hw, seed=0)
        dataset = build_dataset(store)
        unique = len({m.key() for m in mappings})
        assert len(dataset) == unique
        assert dataset.x.shape == (unique, feature_dim())
        assert dataset.stats["skipped"] == 0
        # infeasible rows carry inf targets, never NaN
        assert not np.isnan(dataset.latency_s).any()
        assert np.isfinite(dataset.latency_s[dataset.feasible]).all()

    def test_cache_hits_do_not_duplicate(self, tiny_network, sample_hw, tmp_path):
        store = RunStore(tmp_path / "runs")
        run, mappings = _record_run(store, tiny_network, sample_hw, seed=0)
        # drive the same batch through a fresh engine against the same
        # journal: identical candidates are recomputed and re-journaled,
        # and dedup must fold them away
        journal = EventJournal.open_resume(run.journal_path)
        engine = MaestroEngine(tiny_network)
        engine.sample_sink = JournalSampleSink(journal)
        layer_name = next(iter(engine.layer_shapes))
        engine.evaluate_layers(sample_hw, [(m, layer_name) for m in mappings])
        journal.close()

        deduped = build_dataset(store)
        raw = build_dataset(store, dedup=False)
        assert deduped.stats["duplicates"] > 0
        assert len(raw) == len(deduped) + deduped.stats["duplicates"]

    def test_accepts_many_source_shapes(self, tiny_network, sample_hw, tmp_path):
        store = RunStore(tmp_path / "runs")
        run, _mappings = _record_run(store, tiny_network, sample_hw, seed=0)
        by_store = build_dataset(store)
        by_root = build_dataset(tmp_path / "runs")
        by_run_dir = build_dataset(run.dir)
        by_journal = build_dataset(run.journal_path)
        by_handle = build_dataset(run)
        for dataset in (by_root, by_run_dir, by_journal, by_handle):
            assert len(dataset) == len(by_store)

    def test_truncated_tail_is_tolerated(self, tiny_network, sample_hw, tmp_path):
        store = RunStore(tmp_path / "runs")
        run, _mappings = _record_run(store, tiny_network, sample_hw, seed=0)
        full = build_dataset(store)
        raw = run.journal_path.read_bytes()
        run.journal_path.write_bytes(raw[: int(len(raw) * 0.6)])
        damaged = build_dataset(store)
        assert damaged.stats["truncated_journals"] == 1
        assert 0 < len(damaged) < len(full)

    def test_malformed_and_future_schema_events_skipped(
        self, tiny_network, sample_hw, tmp_path
    ):
        store = RunStore(tmp_path / "runs")
        run, _mappings = _record_run(store, tiny_network, sample_hw, seed=0)
        baseline = build_dataset(store)
        journal = EventJournal.open_resume(run.journal_path)
        journal.append("engine_sample", {"sample_schema": SAMPLE_SCHEMA + 1})
        journal.append("engine_sample", {"sample_schema": 1, "hw": {}})
        journal.close()
        dataset = build_dataset(store)
        assert len(dataset) == len(baseline)
        assert dataset.stats["skipped"] == 2

    def test_missing_source_raises(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no runs or journal"):
            build_dataset(tmp_path / "nope")


class TestSplitByRun:
    def test_whole_runs_stay_on_one_side(self, tiny_network, edge_space, tmp_path):
        store = RunStore(tmp_path / "runs")
        rng = np.random.default_rng(0)
        for seed in range(4):
            _record_run(store, tiny_network, edge_space.sample(rng), seed=seed)
        dataset = build_dataset(store)
        train, val = split_by_run(dataset, val_fraction=0.25, seed=0)
        assert len(train) + len(val) == len(dataset)
        assert len(val) > 0
        assert not (set(train.run_ids) & set(val.run_ids))

    def test_single_run_falls_back_to_row_split(
        self, tiny_network, sample_hw, tmp_path
    ):
        store = RunStore(tmp_path / "runs")
        _record_run(store, tiny_network, sample_hw, seed=0, batch=20)
        dataset = build_dataset(store)
        train, val = split_by_run(dataset, val_fraction=0.25, seed=0)
        assert len(train) + len(val) == len(dataset)
        assert len(val) == round(0.25 * len(dataset))

    def test_split_is_deterministic(self, tiny_network, edge_space, tmp_path):
        store = RunStore(tmp_path / "runs")
        rng = np.random.default_rng(1)
        for seed in range(3):
            _record_run(store, tiny_network, edge_space.sample(rng), seed=seed)
        dataset = build_dataset(store)
        first = split_by_run(dataset, seed=42)
        second = split_by_run(dataset, seed=42)
        assert np.array_equal(first[0].x, second[0].x)
        assert np.array_equal(first[1].x, second[1].x)
