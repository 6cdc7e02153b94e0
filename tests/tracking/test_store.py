"""Tests for the run store (run directories + manifests)."""

import json

import pytest

from repro.errors import TrackingError
from repro.tracking.store import RunHandle, RunStore


class TestCreateRun:
    def test_default_id_and_manifest(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run = store.create_run(
            {"method": "unico", "workload": "resnet", "seed": 3}
        )
        assert "unico" in run.run_id and "resnet" in run.run_id
        assert run.run_id.endswith("-s3")
        manifest = run.read_manifest()
        assert manifest["status"] == "created"
        assert manifest["run_id"] == run.run_id
        assert manifest["code_version"]
        assert manifest["created_at"]
        assert [path.name for path in run.dir.iterdir()] == ["manifest.json"]

    def test_explicit_id_collision_gets_suffix(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = store.create_run({}, run_id="myrun")
        second = store.create_run({}, run_id="myrun")
        assert first.run_id == "myrun"
        assert second.run_id == "myrun-1"

    def test_id_sanitized(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run = store.create_run({}, run_id="a b/c:d")
        assert run.run_id == "a-b-c-d"

    def test_workload_list_joined(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        run = store.create_run({"method": "unico", "workload": ["a", "b"]})
        assert "a+b" in run.run_id


class TestLookup:
    def test_get_unknown_raises(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with pytest.raises(TrackingError):
            store.get("ghost")

    def test_list_runs_ordered_by_creation(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        a = store.create_run({}, run_id="aaa")
        b = store.create_run({}, run_id="bbb")
        # force distinct created_at ordering regardless of clock resolution
        a.update_manifest(created_at="2026-01-01T00:00:00Z")
        b.update_manifest(created_at="2026-01-02T00:00:00Z")
        assert [r.run_id for r in store.list_runs()] == ["aaa", "bbb"]

    def test_list_runs_empty_root(self, tmp_path):
        assert RunStore(tmp_path / "missing").list_runs() == []

    def test_handle_requires_directory(self, tmp_path):
        with pytest.raises(TrackingError):
            RunHandle(tmp_path / "missing")


class TestManifestLifecycle:
    def test_status_transitions(self, tmp_path):
        run = RunStore(tmp_path / "runs").create_run({})
        run.set_status("running")
        assert run.status == "running"
        run.set_status("completed", total_time_s=12.0)
        manifest = run.read_manifest()
        assert manifest["status"] == "completed"
        assert manifest["total_time_s"] == 12.0

    def test_bad_status_rejected(self, tmp_path):
        run = RunStore(tmp_path / "runs").create_run({})
        with pytest.raises(TrackingError):
            run.set_status("exploded")

    def test_manifest_write_is_atomic(self, tmp_path):
        run = RunStore(tmp_path / "runs").create_run({})
        run.update_manifest(extra="value")
        # no temp file left behind and the JSON is complete
        assert not list(run.dir.glob("*.tmp"))
        assert json.loads(run.manifest_path.read_text())["extra"] == "value"

    def test_corrupt_manifest_raises(self, tmp_path):
        run = RunStore(tmp_path / "runs").create_run({})
        run.manifest_path.write_text("{broken")
        with pytest.raises(TrackingError):
            run.read_manifest()
