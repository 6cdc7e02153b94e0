"""Benchmark-suite helpers.

Every benchmark regenerates one table/figure of the paper at the ``bench``
preset (reduced budgets, same algorithms and accounting), prints the rows
the paper reports, and writes the full record as JSON next to the suite so
EXPERIMENTS.md can cite the measured values.

Simulated search cost (the paper's Cost(h) axis) is tracked by the
SimulatedClock inside each run; pytest-benchmark's timer measures the real
compute of regenerating the experiment.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_record(results_dir: pathlib.Path, name: str, record) -> None:
    """Persist an experiment record as JSON."""
    path = results_dir / f"{name}.json"
    path.write_text(record.to_json())


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_experiment_once(benchmark, experiment):
    """Run one experiment (its cells, then its reducer) exactly once under
    the benchmark timer; returns its record."""
    from repro.experiments.paper_runner import run_experiments

    def run():
        ((_name, record),) = run_experiments({"experiment": experiment})
        return record

    return run_once(benchmark, run)
