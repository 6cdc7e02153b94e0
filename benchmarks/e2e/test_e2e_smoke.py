"""Smoke test of the end-to-end benchmark (outside tier-1's ``testpaths``).

Run explicitly, ~3 min::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import metrics as M
from benchmarks.e2e.run import BENCH_DIR, ROOT, WORKLOAD_NAMES
from benchmarks.e2e.workloads import MIN_REPS, RUN_SECONDS, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
END_TO_END = {metric.name for metric in M.END_TO_END}
PER_LAYER = {metric.name for metric in M.PER_LAYER} | {M.FAILED_SHARE.name}


def run_benchmark(workload: str, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seconds", "0", "--setup-samples", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def check_report(report: dict, expected_names: set) -> None:
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] > MIN_REPS
    assert set(report["metrics"]) == expected_names
    for name, entry in report["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == M.BY_NAME[name].unit and UNIT.fullmatch(entry["unit"])
        assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_every_named_metric(workload):
    report = run_benchmark(workload)
    check_report(report, END_TO_END | PER_LAYER)
    values = {name: entry["value"] for name, entry in report["metrics"].items()}
    assert values["bench.span_identity_err_s"] <= 1e-6
    assert values["failed_share"] == 0
    assert values["cosearch_wall_s"] > 0 and values["setup_s"] > 0


def test_trace_flag_selects_the_metric_family():
    check_report(run_benchmark("local_inner", "--trace", "0"), END_TO_END)
    check_report(run_benchmark("local_inner", "--trace", "1"), PER_LAYER)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in M.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in (M.FAILED_SHARE,) + M.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
