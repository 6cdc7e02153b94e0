"""Figure 7: hypervolume-difference vs wall-clock, edge and cloud.

For each network the four methods (HASCO, NSGAII, MOBOHB, UNICO) run to
their budget; the reference front is the non-dominated union of everything
any method found, and each method's HV-difference-to-reference is sampled
on a shared simulated-time grid.  The expected shape: UNICO's curve drops
fastest (reaching HASCO-level HV up to ~4x sooner) and ends lowest.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.experiments.harness import (
    combined_reference,
    hv_difference_curve,
    hypervolume,
    ideal_front,
    run_method,
    time_grid,
)
from repro.experiments.presets import Preset
from repro.utils.records import RunRecord

FIG7_METHODS = ("hasco", "nsgaii", "mobohb", "unico")


def run_fig7_network(
    scenario: str,
    network: str,
    preset: Union[str, Preset] = "smoke",
    methods: Sequence[str] = FIG7_METHODS,
    seed: int = 0,
    grid_points: int = 16,
) -> RunRecord:
    """HV-difference curves for one network (one panel of Fig. 7)."""
    results = {
        method: run_method(method, scenario, network, preset, seed=seed)
        for method in methods
    }
    all_results = list(results.values())
    reference = combined_reference(all_results)
    ideal = ideal_front(all_results)
    ideal_hv = hypervolume(ideal, reference)
    grid = time_grid(all_results, grid_points)

    record = RunRecord(f"fig7-{scenario}-{network}")
    record.put("scenario", scenario)
    record.put("network", network)
    record.put("ideal_hv", ideal_hv)
    record.put("time_grid_s", [float(t) for t in grid])
    for method, result in results.items():
        curve = hv_difference_curve(result, reference, ideal_hv, grid)
        child = record.child(method)
        child.put("hv_diff_curve", [value for _t, value in curve])
        child.put("final_hv_diff", curve[-1][1])
        child.put("total_time_h", result.total_time_h)
        child.put("hw_evaluated", result.total_hw_evaluated)
        # complementary front-quality indicators vs the shared reference
        achieved = result.pareto.points
        if achieved.size and ideal.size:
            from repro.optim.indicators import inverted_generational_distance

            scale = np.where(reference > 0, reference, 1.0)
            child.put(
                "igd",
                inverted_generational_distance(achieved / scale, ideal / scale),
            )
    return record


def speedup_to_reach(
    record: RunRecord, target_method: str = "hasco", by_method: str = "unico"
) -> float:
    """How much faster ``by_method`` reaches ``target_method``'s final HV.

    Returns the ratio t_target / t_by (>= 1 means ``by_method`` is faster);
    inf if ``by_method`` never reaches the target level.
    """
    grid = np.asarray(record.get("time_grid_s"))
    target_final = record.children[target_method].get("final_hv_diff")
    by_curve = np.asarray(record.children[by_method].get("hv_diff_curve"))
    reached = np.flatnonzero(by_curve <= target_final + 1e-15)
    if reached.size == 0:
        return float("inf") if by_curve[-1] > target_final else 1.0
    t_by = grid[reached[0]]
    t_target = grid[-1]
    return float(t_target / max(t_by, 1e-9))


def run_fig7(
    scenario: str,
    networks: Sequence[str],
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
) -> RunRecord:
    """One full panel set (Fig. 7a edge or Fig. 7b cloud)."""
    record = RunRecord(f"fig7-{scenario}")
    speedups: List[float] = []
    for network in networks:
        panel = run_fig7_network(scenario, network, preset, seed=seed)
        record.children[network] = panel
        speedups.append(speedup_to_reach(panel))
    finite = [s for s in speedups if np.isfinite(s)]
    record.put("mean_speedup_vs_hasco", float(np.mean(finite)) if finite else None)
    return record
