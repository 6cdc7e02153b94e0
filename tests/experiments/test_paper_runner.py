"""Tests for the one-shot reproduction driver."""

import json

import pytest

import repro.experiments.paper_runner as paper_runner
from repro.experiments import fig10
from repro.experiments.fig10 import fig10_experiment
from repro.experiments.fig7 import fig7_experiment
from repro.experiments.presets import get_preset
from repro.experiments.tables import table_experiment
from repro.experiments.harness import RunSpec, launch
from repro.experiments.paper_runner import (
    EXPERIMENTS,
    cell_key,
    run_everything,
    run_experiments,
)
from repro.workloads.network import Network


class TestRunEverything:
    def test_subset_runs_and_writes(self, tmp_path):
        messages = []
        summary = run_everything(
            preset="smoke",
            seed=3,
            results_dir=tmp_path,
            only=["fig10"],
            progress=messages.append,
        )
        assert "fig10" in summary.children
        payload = json.loads((tmp_path / "fig10.json").read_text())
        assert payload["name"] == "fig10"
        assert any("running fig10" in m for m in messages)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_everything(only=["fig99"])

    def test_registry_covers_all_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "table1_edge",
            "table2_cloud",
            "fig7a_edge",
            "fig7b_cloud",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
        }

    def test_summary_metadata(self, tmp_path):
        summary = run_everything(
            preset="smoke", seed=1, results_dir=None, only=["fig10"]
        )
        assert summary.get("preset") == "smoke"
        assert summary.get("seed") == 1
        assert summary.get("experiments") == ["fig10"]


class TestOneCoSearchPerCell:
    def test_registry_cells_and_distinct_cells(self):
        """No search runs: the eight experiments read 122 cells, 72 of
        them distinct (Tables 1-2 are Fig. 7 cells, and Fig. 10's HASCO
        and UNICO cells are Fig. 7a's)."""
        preset = get_preset("smoke")
        cells = [
            spec
            for build in EXPERIMENTS.values()
            for spec in build(preset, 0).cells
        ]
        assert len(cells) == 122
        assert len({cell_key(spec) for spec in cells}) == 72

    def test_in_memory_networks_sharing_a_name_stay_two_cells(self, tiny_network):
        twin = Network(tiny_network.name, tiny_network.layers)
        specs = [RunSpec("unico", "edge", net, "smoke") for net in (tiny_network, twin)]
        assert cell_key(specs[0]) == cell_key(RunSpec("unico", "edge", tiny_network))
        assert cell_key(specs[0]) != cell_key(specs[1])

    def test_joint_run_launches_each_distinct_cell_once(self, monkeypatch):
        networks = ["fsrcnn_120x320"]
        monkeypatch.setattr(fig10, "FIG10_NETWORKS", tuple(networks))

        def experiments():
            return {
                "table1_edge": table_experiment("edge", networks, "smoke", seed=0),
                "fig7a_edge": fig7_experiment("edge", networks, "smoke", seed=0),
                "fig10": fig10_experiment("smoke", seed=0),
            }

        alone = {
            name: dict(run_experiments({name: experiment}))[name]
            for name, experiment in experiments().items()
        }
        launched = []

        def recording_launch(spec, **kwargs):
            launched.append(cell_key(spec))
            return launch(spec, **kwargs)

        monkeypatch.setattr(paper_runner, "launch", recording_launch)
        joint = dict(run_experiments(experiments()))
        # table: 3 cells; fig7 adds mobohb; fig10 adds the two ablations
        assert len(launched) == len(set(launched)) == 6
        assert {name: r.to_json() for name, r in joint.items()} == {
            name: r.to_json() for name, r in alone.items()
        }
