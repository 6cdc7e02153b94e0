"""Harness wiring: parity, provenance, resume and sample recording.

The acceptance bar of the learned subsystem: with screening disabled a
fixed-seed co-search is bit-identical to a build without the subsystem,
and with screening enabled every Pareto point is still exact analytical
PPA (screened-out candidates can never reach a front).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrackingError
from repro.experiments.harness import build_optimizer, resume_run, run_method
from repro.learned.dataset import build_dataset
from repro.learned.model import LearnedCostModel
from repro.learned.screen import ScreeningPPAEngine
from repro.tracking.journal import read_events
from repro.tracking.store import RunStore
from tests.tracking.journal_lines import cut_before_last_state

WORKLOAD = "mobilenet"


def _points(result):
    return sorted(map(tuple, result.pareto.points.tolist()))


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """A tracked smoke run that records engine samples, plus its store."""
    runs_dir = tmp_path_factory.mktemp("runs")
    result = run_method(
        "unico", "edge", WORKLOAD, "smoke", seed=11,
        run_store=runs_dir, record_samples=True, eval_batch_size=8,
    )
    return RunStore(runs_dir), result


@pytest.fixture(scope="module")
def trained_model(recorded_run, tmp_path_factory):
    store, _result = recorded_run
    dataset = build_dataset(store)
    model = LearnedCostModel.fit(
        dataset.x, dataset.latency_s, dataset.energy_j, dataset.feasible,
        seed=0, hidden=16, ensemble=2, epochs=80,
    )
    path = tmp_path_factory.mktemp("model") / "model.json"
    model.save(path)
    return model, path


class TestParity:
    def test_no_screen_run_is_bit_identical(self):
        plain = run_method("unico", "edge", WORKLOAD, "smoke", seed=11)
        unscreened = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11, screen=None
        )
        assert _points(plain) == _points(unscreened)
        assert plain.total_time_s == unscreened.total_time_s
        assert "screening" not in unscreened.extras

    def test_wrapper_without_model_is_bit_identical(self):
        plain = run_method("unico", "edge", WORKLOAD, "smoke", seed=11)
        optimizer = build_optimizer("unico", "edge", WORKLOAD, "smoke", seed=11)
        optimizer.engine = ScreeningPPAEngine(optimizer.engine, model=None)
        wrapped = optimizer.optimize()
        assert _points(plain) == _points(wrapped)
        assert plain.total_time_s == wrapped.total_time_s


class TestRecording:
    def test_samples_land_in_journal(self, recorded_run):
        store, result = recorded_run
        run = store.get(result.extras["run_id"])
        scan = read_events(run.journal_path)
        samples = scan.of_type("engine_sample")
        assert len(samples) > 0
        assert run.read_manifest()["record_samples"] is True
        dataset = build_dataset(store)
        assert len(dataset) > 0

    def test_record_samples_requires_journal(self):
        with pytest.raises(ConfigurationError, match="record_samples"):
            run_method(
                "unico", "edge", WORKLOAD, "smoke", seed=11,
                record_samples=True,
            )


class TestScreenedRun:
    def test_screened_run_pareto_is_analytical(
        self, trained_model, tmp_path
    ):
        _model, path = trained_model
        screened = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=12,
            run_store=tmp_path / "runs", screen=str(path), screen_topk=4,
            eval_batch_size=8,
        )
        stats = screened.extras["screening"]
        assert stats["enabled"] is True
        # every surfaced point is finite exact PPA (screened placeholders
        # are infinite/infeasible and can never reach a front)
        assert np.isfinite(screened.pareto.points).all()
        for entry in screened.timeline:
            if entry.feasible:
                assert np.isfinite(entry.ppa_vector).all()
        # provenance is in the manifest and the journal
        run = RunStore(tmp_path / "runs").get(screened.extras["run_id"])
        manifest = run.read_manifest()
        assert manifest["screen"]["model_path"] == str(path)
        assert manifest["screen"]["model_sha256"]
        events = read_events(run.journal_path).of_type("learned_model")
        assert len(events) == 1
        assert events[0]["model_path"] == str(path)

    def test_screening_saves_analytical_evals(self, trained_model):
        # the screen only ranks same-layer groups of ``min_batch``, and the
        # random tool (its proposals never read a result, so it drafts the
        # full width) is the one that hands it such groups: 63 drafts over
        # 20 layers.  FlexTensor drafts nothing and the screen passes its
        # one item whole (DESIGN.md section 4b).
        _model, path = trained_model
        plain = run_method(
            "unico", "edge", WORKLOAD, "bench", seed=12, eval_batch_size=64,
            tool="random",
        )
        screened = run_method(
            "unico", "edge", WORKLOAD, "bench", seed=12,
            screen=str(path), screen_topk=4, eval_batch_size=64, tool="random",
        )
        saved = screened.extras["screening"]["evals_saved"]
        assert saved > 0
        assert screened.total_engine_queries < plain.total_engine_queries

    def test_loaded_model_object_is_accepted(self, trained_model):
        model, _path = trained_model
        result = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=12,
            screen=model, screen_topk=4, eval_batch_size=8,
        )
        assert result.extras["screen_model"]["model_path"] is None

    def test_tool_override_reaches_the_search(self):
        result = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11, tool="oneloop"
        )
        assert len(result.pareto.points) > 0


class TestScreenedResume:
    def test_resume_restores_the_wrapper(self, trained_model, tmp_path):
        _model, path = trained_model
        screened = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=12,
            run_store=tmp_path / "runs", screen=str(path), screen_topk=4,
            eval_batch_size=8,
        )
        run = RunStore(tmp_path / "runs").get(screened.extras["run_id"])
        # cut the journal before its last state line: it is now one
        # iteration ahead, so resume re-executes the last iteration —
        # through the re-wrapped screening engine
        cut_before_last_state(run.journal_path)
        resumed = resume_run(run)
        assert _points(resumed) == _points(screened)

    def test_resume_refuses_missing_model(self, trained_model, tmp_path):
        import shutil

        model, original = trained_model
        moved = tmp_path / "moved-model.json"
        shutil.copy(original, moved)
        screened = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=12,
            run_store=tmp_path / "runs", screen=str(moved), screen_topk=4,
            eval_batch_size=8,
        )
        run = RunStore(tmp_path / "runs").get(screened.extras["run_id"])
        cut_before_last_state(run.journal_path)
        moved.unlink()
        with pytest.raises(TrackingError, match="no longer exists"):
            resume_run(run)
