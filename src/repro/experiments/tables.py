"""Tables 1-2: per-network PPA + search cost under edge/cloud constraints.

For each network and method the harness runs the full co-search, selects
the min-Euclidean-distance design on the PPA Pareto front, and reports
``(latency, power, area, cost-in-hours)`` — the exact columns of the paper's
tables.  The expected shape: UNICO's design dominates (or trades one metric
slightly for large gains on the other two) at a several-fold smaller
Cost(h).
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

from repro.core.base import CoSearchResult
from repro.experiments.harness import Experiment, RunSpec
from repro.experiments.presets import Preset
from repro.utils.records import RunRecord

TABLE_METHODS = ("hasco", "nsgaii", "unico")


def table_cell(result: CoSearchResult) -> Dict[str, float]:
    """One (method, network) cell: the paper's four reported values."""
    best = result.best_design()
    if best is None:
        return {
            "latency_ms": float("inf"),
            "power_mw": float("inf"),
            "area_mm2": float("inf"),
            "cost_h": result.total_time_h,
            "pareto_size": 0,
        }
    return {
        "latency_ms": best.ppa.latency_s * 1e3,
        "power_mw": best.ppa.power_w * 1e3,
        "area_mm2": best.ppa.area_mm2,
        "cost_h": result.total_time_h,
        "pareto_size": len(result.pareto),
    }


def table_experiment(
    scenario: str,
    networks: Sequence[str],
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
) -> Experiment:
    """Table 1 (scenario='edge') or Table 2 (scenario='cloud')."""
    networks = list(networks)
    cells = tuple(
        RunSpec(method, scenario, network, preset, seed=seed)
        for network in networks
        for method in TABLE_METHODS
    )

    def reduce(results) -> RunRecord:
        record = RunRecord(f"table-{scenario}")
        record.put("scenario", scenario)
        record.put("methods", list(TABLE_METHODS))
        cell_results = iter(results)
        for network in networks:
            network_record = record.child(network)
            for method in TABLE_METHODS:
                network_record.child(method).update(table_cell(next(cell_results)))
        return record

    return Experiment(cells, reduce)
