"""Figure 7: hypervolume-difference vs wall-clock, edge and cloud.

For each network the four methods (HASCO, NSGAII, MOBOHB, UNICO) run to
their budget; the reference front is the non-dominated union of everything
any method found, and each method's HV-difference-to-reference is sampled
on a shared simulated-time grid.  The expected shape: UNICO's curve drops
fastest (reaching HASCO-level HV up to ~4x sooner) and ends lowest.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.base import CoSearchResult
from repro.experiments.harness import (
    Experiment,
    RunSpec,
    combined_reference,
    hv_difference_curve,
    ideal_front,
    time_grid,
)
from repro.experiments.presets import Preset
from repro.optim.hypervolume import hypervolume
from repro.utils.records import RunRecord

FIG7_METHODS = ("hasco", "nsgaii", "mobohb", "unico")
#: points of the shared simulated-time grid each curve is sampled on
GRID_POINTS = 16


def _panel(
    scenario: str, network: str, results: Dict[str, CoSearchResult]
) -> RunRecord:
    """HV-difference curves for one network (one panel of Fig. 7)."""
    all_results = list(results.values())
    reference = combined_reference(all_results)
    ideal = ideal_front(all_results)
    ideal_hv = hypervolume(ideal, reference)
    grid = time_grid(all_results, GRID_POINTS)

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


def speedup_to_reach(record: RunRecord) -> float:
    """How much sooner UNICO reaches HASCO's final HV than HASCO does.

    Both times are read off the panel's grid: the first grid time at which
    each curve is at or below HASCO's final HV difference.  Returns their
    ratio t_hasco / t_unico (>= 1 means UNICO is faster); inf if UNICO
    never reaches that level.
    """
    grid = np.asarray(record.get("time_grid_s"))
    target_final = record.children["hasco"].get("final_hv_diff")

    def first_reach(method: str) -> np.ndarray:
        curve = np.asarray(record.children[method].get("hv_diff_curve"))
        return np.flatnonzero(curve <= target_final + 1e-15)

    reached = first_reach("unico")
    if reached.size == 0:
        return float("inf")
    t_target = grid[first_reach("hasco")[0]]
    return float(t_target / max(grid[reached[0]], 1e-9))


def fig7_experiment(
    scenario: str,
    networks: Sequence[str],
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
) -> Experiment:
    """One full panel set (Fig. 7a edge or Fig. 7b cloud)."""
    networks = list(networks)
    cells = tuple(
        RunSpec(method, scenario, network, preset, seed=seed)
        for network in networks
        for method in FIG7_METHODS
    )

    def reduce(results) -> RunRecord:
        record = RunRecord(f"fig7-{scenario}")
        speedups: List[float] = []
        cell_results = iter(results)
        for network in networks:
            panel = _panel(
                scenario,
                network,
                {method: next(cell_results) for method in FIG7_METHODS},
            )
            record.children[network] = panel
            speedups.append(speedup_to_reach(panel))
        finite = [s for s in speedups if np.isfinite(s)]
        record.put(
            "mean_speedup_vs_hasco", float(np.mean(finite)) if finite else None
        )
        # the mean is over the panels UNICO reached; name the ones it left out
        record.put(
            "unreached_panels",
            [
                network
                for network, speedup in zip(networks, speedups)
                if not np.isfinite(speedup)
            ],
        )
        return record

    return Experiment(cells, reduce)
