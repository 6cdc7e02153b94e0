"""Tests for the hub's single-worker run scheduler."""

import json
import time

import pytest

from repro.errors import ConfigurationError, TrackingError
from repro.hub.scheduler import RunScheduler
from repro.tracking import RunStore, committed_iterations, read_events


SMOKE_SPEC = {
    "method": "unico",
    "scenario": "edge",
    "workload": "fsrcnn_120x320",
    "preset": "smoke",
    "seed": 0,
}


def wait_for_status(run, statuses, timeout_s=90.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = run.read_manifest().get("status")
        if status in statuses:
            return status
        time.sleep(0.1)
    raise AssertionError(
        f"run never reached {statuses}; stuck at "
        f"{run.read_manifest().get('status')!r}"
    )


class TestSubmitValidation:
    """Bad specs must fail at submit time (HTTP 400), not as failed runs."""

    def setup_method(self):
        self.store = None

    def make_scheduler(self, tmp_path):
        return RunScheduler(RunStore(tmp_path / "runs"))

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown run-spec"):
            self.make_scheduler(tmp_path).submit(
                dict(SMOKE_SPEC, bogus_field=1)
            )

    def test_missing_required_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="lacks"):
            self.make_scheduler(tmp_path).submit({"method": "unico"})

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown method"):
            self.make_scheduler(tmp_path).submit(
                dict(SMOKE_SPEC, method="grad_student_descent")
            )

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            self.make_scheduler(tmp_path).submit(
                dict(SMOKE_SPEC, scenario="A")
            )

    def test_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            self.make_scheduler(tmp_path).submit(
                dict(SMOKE_SPEC, workload="tiny_cnn")
            )

    def test_manifest_carries_resume_keys(self, tmp_path):
        """A hub-submitted manifest must be resumable by the existing
        resume path: full preset params, not just a preset name."""
        scheduler = self.make_scheduler(tmp_path)
        run_id = scheduler.submit(dict(SMOKE_SPEC))
        manifest = scheduler.store.get(run_id).read_manifest()
        assert manifest["status"] == "queued"
        assert manifest["submitted_via"] == "hub"
        assert manifest["preset"] == "smoke"
        assert isinstance(manifest["preset_params"], dict)
        for key in ("method", "scenario", "workload", "seed"):
            assert key in manifest


class TestExecution:
    def test_smoke_run_completes_with_journal(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with RunScheduler(store) as scheduler:
            run_id = scheduler.submit(dict(SMOKE_SPEC))
            run = store.get(run_id)
            status = wait_for_status(run, ("completed", "failed"))
        assert status == "completed"
        scan = read_events(run.journal_path)
        types = [e["type"] for e in scan.events]
        assert types[0] == "run_start"
        assert types[-1] == "run_end"
        assert scheduler.metrics.counter(
            "hub_runs_completed_total"
        ).value == 1

    def test_fifo_order(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with RunScheduler(store) as scheduler:
            first = scheduler.submit(dict(SMOKE_SPEC, run_id="run-a"))
            second = scheduler.submit(dict(SMOKE_SPEC, seed=1,
                                           run_id="run-b"))
            wait_for_status(store.get(second), ("completed", "failed"))
        a_end = read_events(store.get(first).journal_path).events[-1]
        b_start = read_events(store.get(second).journal_path).events[0]
        assert a_end["wall_time"] <= b_start["wall_time"]


class TestCancellation:
    def test_cancel_queued_is_immediate(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        scheduler = RunScheduler(store)  # not started: stays queued
        run_id = scheduler.submit(dict(SMOKE_SPEC))
        assert scheduler.cancel(run_id) == "cancelled"
        assert store.get(run_id).read_manifest()["status"] == "cancelled"
        assert scheduler.state()["queued"] == []

    def test_cancel_terminal_run_rejected(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        scheduler = RunScheduler(store)
        run_id = scheduler.submit(dict(SMOKE_SPEC))
        scheduler.cancel(run_id)
        with pytest.raises(TrackingError, match="not cancellable"):
            scheduler.cancel(run_id)

    def test_cancel_running_terminates_worker(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        # the "paper" preset runs long enough to be caught mid-flight
        with RunScheduler(store) as scheduler:
            run_id = scheduler.submit(
                dict(SMOKE_SPEC, preset="paper")
            )
            run = store.get(run_id)
            wait_for_status(run, ("running",))
            assert scheduler.cancel(run_id) == "cancelling"
            status = wait_for_status(run, ("cancelled", "failed"))
        assert status == "cancelled"
        manifest = run.read_manifest()
        assert manifest["interrupted"] is True

    def test_cancel_works_under_parent_signal_handlers(self, tmp_path):
        """`repro hub serve` installs SIGTERM/SIGINT drain handlers; a
        forked run child inherits them, so it must reset to the defaults
        or cancellation's SIGTERM is swallowed and the run completes."""
        import signal

        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            store = RunStore(tmp_path / "runs")
            with RunScheduler(store) as scheduler:
                run_id = scheduler.submit(dict(SMOKE_SPEC, preset="paper"))
                run = store.get(run_id)
                wait_for_status(run, ("running",))
                assert scheduler.cancel(run_id) == "cancelling"
                status = wait_for_status(run, ("cancelled", "failed"))
            assert status == "cancelled"
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestReconcile:
    def test_orphaned_running_marked_failed(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run = store.create_run(dict(SMOKE_SPEC, status="running"))
        touched = RunScheduler(store).reconcile()
        assert run.run_id in touched
        manifest = run.read_manifest()
        assert manifest["status"] == "failed"
        assert manifest["interrupted"] is True
        assert manifest["resumable"] is False  # no iteration_state line

    def test_orphaned_hub_queued_requeued(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run = store.create_run(
            dict(SMOKE_SPEC, status="queued", submitted_via="hub")
        )
        scheduler = RunScheduler(store)
        assert run.run_id in scheduler.reconcile()
        assert run.run_id in scheduler.state()["queued"]

    def test_cli_queued_left_alone(self, tmp_path):
        """Only hub-submitted queued runs are requeued; a foreign manifest
        in the store is not the hub's to execute."""
        store = RunStore(tmp_path / "runs")
        run = store.create_run(dict(SMOKE_SPEC, status="queued"))
        scheduler = RunScheduler(store)
        assert scheduler.reconcile() == []
        assert run.run_id not in scheduler.state()["queued"]


class TestResume:
    def test_completed_run_not_resumable(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with RunScheduler(store) as scheduler:
            run_id = scheduler.submit(dict(SMOKE_SPEC))
            wait_for_status(store.get(run_id), ("completed", "failed"))
            with pytest.raises(TrackingError, match="already completed"):
                scheduler.submit_resume(run_id)

    def test_interrupted_run_resumes_to_completion(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with RunScheduler(store) as scheduler:
            run_id = scheduler.submit(dict(SMOKE_SPEC, preset="paper"))
            run = store.get(run_id)
            wait_for_status(run, ("running",))
            # give the child time to commit at least one iteration
            deadline = time.monotonic() + 60
            while (committed_iterations(run) is None
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert committed_iterations(run) is not None
            scheduler.cancel(run_id)
            wait_for_status(run, ("cancelled",))
            assert run.read_manifest()["resumable"] is True
            scheduler.submit_resume(run_id)
            status = wait_for_status(run, ("completed", "failed"),
                                     timeout_s=300.0)
        assert status == "completed"
        events = read_events(run.journal_path).events
        assert "resume" in {e["type"] for e in events}
        assert events[-1]["type"] == "run_end"
