"""Tests for the markdown report generator."""

import json
import pathlib

import pytest

from repro.experiments.reporting import generate_report, load_records
from repro.utils.records import RunRecord


@pytest.fixture()
def results_dir(tmp_path):
    table = RunRecord("table-edge")
    table.put("scenario", "edge")
    table.put("methods", ["hasco", "unico"])
    row = table.child("bert")
    row.child("hasco").update(
        {"latency_ms": 10.0, "power_mw": 100.0, "area_mm2": 2.0, "cost_h": 5.0,
         "engine_queries": 3600}
    )
    row.child("unico").update(
        {"latency_ms": 8.0, "power_mw": 80.0, "area_mm2": 1.8, "cost_h": 1.0,
         "engine_queries": 720}
    )
    (tmp_path / "table1_edge.json").write_text(table.to_json())

    fig = RunRecord("fig9")
    fig.put("mean_gain_ratio", 1.14)
    fig.child("unet").put("gain_ratio", 1.16)
    (tmp_path / "fig9.json").write_text(fig.to_json())
    return tmp_path


class TestLoadRecords:
    def test_loads_known_files(self, results_dir):
        records = load_records(results_dir)
        assert set(records) == {"table1_edge", "fig9"}

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_records(tmp_path / "nothing") == {}


class TestGenerateReport:
    def test_contains_table_rows(self, results_dir):
        markdown = generate_report(results_dir)
        assert "| bert |" in markdown
        assert "unico" in markdown

    def test_contains_fig_metrics(self, results_dir):
        markdown = generate_report(results_dir)
        assert "mean_gain_ratio" in markdown
        assert "1.14" in markdown

    def test_empty_dir_message(self, tmp_path):
        markdown = generate_report(tmp_path)
        assert "No records found" in markdown

    def test_valid_markdown_table_shape(self, results_dir):
        markdown = generate_report(results_dir)
        table_lines = [l for l in markdown.splitlines() if l.startswith("| bert")]
        assert len(table_lines) == 1
        # 1 network column + 2 methods x 5 metrics
        assert table_lines[0].count("|") == 12

    def test_table_cells_carry_their_query_count(self, results_dir):
        markdown = generate_report(results_dir)
        assert "unico queries" in markdown
        (row,) = [l for l in markdown.splitlines() if l.startswith("| bert")]
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells[5] == "3600" and cells[10] == "720"


def test_fig7_mean_names_the_panels_it_leaves_out(tmp_path):
    fig7 = RunRecord("fig7-cloud")
    fig7.put("mean_speedup_vs_hasco", 6.0)
    fig7.put("unreached_panels", ["srgan"])
    (tmp_path / "fig7b_cloud.json").write_text(fig7.to_json())
    markdown = generate_report(tmp_path)
    assert "**6x** (unreached panels, left out of the mean: srgan)" in markdown
