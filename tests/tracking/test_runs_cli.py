"""Tests for the ``repro runs`` CLI (list / show / tail / compare / resume)."""

import json

import pytest

from repro.cli import main
from repro.tracking import RunStore, committed_iterations

WORKLOAD = "fsrcnn_120x320"


@pytest.fixture()
def tracked_run(tmp_path, capsys):
    """One tracked smoke run; returns (runs_dir, run_id)."""
    runs_dir = str(tmp_path / "runs")
    code = main(
        [
            "run", "unico", WORKLOAD, "--preset", "smoke", "--seed", "2",
            "--track", "--runs-dir", runs_dir,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tracked as run " in out
    run_id = out.split("tracked as run ")[1].splitlines()[0].strip()
    return runs_dir, run_id


class TestRunsCommands:
    def test_list(self, tracked_run, capsys):
        runs_dir, run_id = tracked_run
        assert main(["runs", "list", "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "completed" in out

    def test_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", "--runs-dir", str(tmp_path / "none")]) == 0
        assert "no runs" in capsys.readouterr().out

    def test_show(self, tracked_run, capsys):
        runs_dir, run_id = tracked_run
        assert main(["runs", "show", run_id, "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert "journal:" in out
        assert "iterations (replayed from journal):" in out
        assert "committed_iterations" in out

    def test_tail_filters_by_type(self, tracked_run, capsys):
        runs_dir, run_id = tracked_run
        assert (
            main(
                [
                    "runs", "tail", run_id, "--runs-dir", runs_dir,
                    "-n", "3", "--type", "iteration_end",
                ]
            )
            == 0
        )
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert lines
        for line in lines:
            assert json.loads(line)["type"] == "iteration_end"

    def test_compare(self, tracked_run, capsys):
        runs_dir, run_id = tracked_run
        code = main(
            [
                "run", "unico", WORKLOAD, "--preset", "smoke", "--seed", "3",
                "--track", "--runs-dir", runs_dir,
            ]
        )
        assert code == 0
        other_id = next(
            run.run_id
            for run in RunStore(runs_dir).list_runs()
            if run.run_id != run_id
        )
        capsys.readouterr()
        assert (
            main(["runs", "compare", run_id, other_id, "--runs-dir", runs_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "final pareto size" in out
        assert "pareto size by iteration:" in out

    def test_resume_extends_completed_run(self, tracked_run, capsys):
        runs_dir, run_id = tracked_run
        code = main(
            [
                "runs", "resume", run_id, "--runs-dir", runs_dir,
                "--max-iterations", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from iteration 2, now at 3" in out
        run = RunStore(runs_dir).get(run_id)
        assert run.status == "completed"
        assert committed_iterations(run) == 3

    def test_unknown_run_id_errors(self, tmp_path):
        from repro.errors import TrackingError

        with pytest.raises(TrackingError):
            main(["runs", "show", "ghost", "--runs-dir", str(tmp_path)])


@pytest.fixture()
def traced_run(tmp_path, capsys):
    """One traced smoke run; returns (runs_dir, run_id)."""
    runs_dir = str(tmp_path / "runs")
    code = main(
        [
            "run", "unico", WORKLOAD, "--preset", "smoke", "--seed", "2",
            "--track", "--trace", "--runs-dir", runs_dir,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace written to" in out
    run_id = out.split("tracked as run ")[1].splitlines()[0].strip()
    return runs_dir, run_id


class TestObservabilityCommands:
    def test_trace_requires_track(self, capsys):
        code = main(["run", "unico", WORKLOAD, "--preset", "smoke", "--trace"])
        assert code == 2
        assert "--trace requires --track" in capsys.readouterr().err

    def test_profile(self, traced_run, capsys):
        runs_dir, run_id = traced_run
        assert (
            main(["runs", "profile", run_id, "--runs-dir", runs_dir]) == 0
        )
        out = capsys.readouterr().out
        assert "spans" in out
        assert "msh_round" in out
        assert "evals/s" in out
        assert "slowest spans:" in out

    def test_profile_untraced_run_errors(self, tracked_run, capsys):
        runs_dir, run_id = tracked_run
        assert (
            main(["runs", "profile", run_id, "--runs-dir", runs_dir]) == 1
        )
        assert "no recorded spans" in capsys.readouterr().err

    def test_trace_export(self, traced_run, tmp_path, capsys):
        runs_dir, run_id = traced_run
        out_path = tmp_path / "exported.json"
        assert (
            main(
                [
                    "runs", "trace", run_id, "--runs-dir", runs_dir,
                    "--out", str(out_path),
                ]
            )
            == 0
        )
        assert "perfetto" in capsys.readouterr().out.lower()
        document = json.loads(out_path.read_text())
        names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "X"
        }
        assert {"run", "iteration", "msh_round"} <= names
