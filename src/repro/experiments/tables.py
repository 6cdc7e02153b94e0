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

from repro.experiments.harness import run_method
from repro.experiments.presets import Preset
from repro.utils.records import RunRecord

TABLE_METHODS = ("hasco", "nsgaii", "unico")


def run_table_cell(
    method: str,
    scenario: str,
    network: str,
    preset: Union[str, Preset],
    seed: int = 0,
) -> Dict[str, float]:
    """One (method, network) cell: the paper's four reported values."""
    result = run_method(method, scenario, network, preset, seed=seed)
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


def run_table(
    scenario: str,
    networks: Sequence[str],
    preset: Union[str, Preset] = "smoke",
    methods: Sequence[str] = TABLE_METHODS,
    seed: int = 0,
) -> RunRecord:
    """Regenerate Table 1 (scenario='edge') or Table 2 (scenario='cloud')."""
    record = RunRecord(f"table-{scenario}")
    record.put("scenario", scenario)
    record.put("methods", list(methods))
    for network in networks:
        network_record = record.child(network)
        for method in methods:
            cell = run_table_cell(method, scenario, network, preset, seed=seed)
            network_record.child(method).update(cell)
    return record


def format_table(record: RunRecord) -> str:
    """Render a table record as the paper-style text table."""
    lines = [
        f"{'Network':<16s}"
        + "".join(
            f"{method:>12s}(L ms){method:>10s}(P mW){method:>10s}(A mm2)"
            f"{method:>8s}(h)"
            for method in record.get("methods", [])
        )
    ]
    for network, network_record in record.children.items():
        cells = []
        for method in record.get("methods", []):
            metrics = network_record.children[method].metrics
            cells.append(
                f"{metrics['latency_ms']:18.4g}{metrics['power_mw']:16.4g}"
                f"{metrics['area_mm2']:17.3g}{metrics['cost_h']:9.2f}"
            )
        lines.append(f"{network:<16s}" + "".join(cells))
    return "\n".join(lines)
