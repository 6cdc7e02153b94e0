"""Smoke-scale end-to-end tests of every table/figure experiment.

These run the real experiment code paths at the ``smoke`` preset on a tiny
workload, asserting structure (the right rows/series exist and are sane),
not absolute numbers — statistical shape claims live in the benchmarks.
"""

import json

import pytest

from repro.camodel.ascend_sim import _STAGE_NAMES
from repro.experiments.fig10 import fig10_experiment
from repro.experiments.fig11 import fig11_experiment
from repro.experiments.fig7 import fig7_experiment, speedup_to_reach
from repro.experiments.fig8 import fig8_experiment
from repro.experiments.fig9 import fig9_experiment
from repro.experiments.paper_runner import run_experiments
from repro.experiments.tables import table_experiment
from repro.experiments.reporting import generate_report
from repro.workloads.registry import get_network


def _record(experiment):
    ((_name, record),) = run_experiments({"experiment": experiment})
    return record


@pytest.fixture(scope="module")
def table_record():
    return _record(table_experiment("edge", ["fsrcnn_120x320"], "smoke", seed=2))


@pytest.fixture(scope="module")
def fig7_panel():
    record = _record(fig7_experiment("edge", ["fsrcnn_120x320"], "smoke", seed=3))
    return record.children["fsrcnn_120x320"]


class TestTableHarness:
    def test_table_structure(self, table_record):
        assert "fsrcnn_120x320" in table_record.children
        row = table_record.children["fsrcnn_120x320"]
        for method in ("hasco", "nsgaii", "unico"):
            cell = row.children[method].metrics
            assert cell["cost_h"] > 0
            assert cell["latency_ms"] > 0

    def test_formatting(self, table_record, tmp_path):
        (tmp_path / "table1_edge.json").write_text(table_record.to_json())
        text = generate_report(tmp_path)
        assert "| fsrcnn_120x320 |" in text
        assert "hasco L(ms)" in text

    def test_json_serializable(self, table_record):
        json.loads(table_record.to_json())


class TestFig7Harness:
    def test_panel_structure(self, fig7_panel):
        assert fig7_panel.get("ideal_hv") > 0
        grid = fig7_panel.get("time_grid_s")
        for method in ("hasco", "nsgaii", "mobohb", "unico"):
            curve = fig7_panel.children[method].get("hv_diff_curve")
            assert len(curve) == len(grid)
            assert all(v >= 0 for v in curve)
            # HV difference curves are non-increasing in time
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_speedup_metric(self, fig7_panel):
        assert speedup_to_reach(fig7_panel) > 0


class TestFig8Harness:
    def test_record_structure(self):
        record = _record(
            fig8_experiment(
                "smoke", seed=2, train_networks=("fsrcnn_120x320",),
                validation_networks=("fsrcnn_240x640",),
            )
        )
        assert record.get("pareto_size") >= 0
        if record.get("num_pairs"):
            pair = record.children["pair_0"]
            assert pair.get("robust_r") <= pair.get("fragile_r")
            assert "robust_mean_latency_ms" in pair.metrics


class TestFig9Harness:
    def test_record_structure(self):
        record = _record(
            fig9_experiment(
                "smoke",
                seed=2,
                train_networks=("fsrcnn_120x320",),
                validation_networks=("fsrcnn_240x640", "dleu"),
            )
        )
        if "error" not in record.metrics:
            for network in ("fsrcnn_240x640", "dleu"):
                child = record.children[network]
                assert child.get("gain_ratio") is not None
            assert record.get("mean_gain_ratio") is not None


class TestFig10Harness:
    def test_panel_structure(self):
        record = _record(fig10_experiment("smoke", seed=4, networks=["fsrcnn_120x320"]))
        panel = record.children["fsrcnn_120x320"]
        for method in ("hasco", "sh_champion", "msh_champion", "unico"):
            assert panel.children[method].get("final_hv") >= 0
        assert "improvement_over_hasco_pct" in panel.children["unico"].metrics


class TestFig11Harness:
    def test_record_structure(self):
        record = _record(fig11_experiment("smoke", seed=5, networks=["fsrcnn_120x320"]))
        child = record.children["fsrcnn_120x320"]
        assert child.get("default_latency_ms") > 0
        if "error" not in child.metrics:
            assert "latency_saving_pct" in child.metrics
            assert "power_saving_pct" in child.metrics
            rebalance = child.get("buffer_rebalance")
            assert set(rebalance) == {"l0a_kb", "l0b_kb", "l0c_kb"}
            layers = len(get_network("fsrcnn_120x320").layers)
            for tally in child.get("bottleneck_layers").values():
                assert set(tally) <= set(_STAGE_NAMES) and sum(tally.values()) == layers
        assert record.get("default_hw")
