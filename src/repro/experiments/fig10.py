"""Figure 10: ablation of UNICO's two algorithmic features.

Four variants run on each workload of {UNET, SRGAN, BERT, VIT}:

* ``hasco``        — ChampionUpdate, no successive halving,
* ``sh_champion``  — vanilla SH + ChampionUpdate,
* ``msh_champion`` — modified SH + ChampionUpdate,
* ``unico``        — MSH + HighFidelityUpdate (+ robustness).

Reported: final hypervolume per variant against a shared reference, plus
the relative improvements the paper quotes (MSH+Champion ~13.7% over HASCO,
~16% over SH+Champion; full UNICO ~28% over HASCO; SH+Champion *worse*
than HASCO because plain SH prunes promising configurations too early).
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from repro.core.base import CoSearchResult
from repro.experiments.harness import (
    Experiment,
    RunSpec,
    combined_reference,
    final_hypervolume,
)
from repro.experiments.presets import Preset
from repro.utils.records import RunRecord
from repro.workloads.registry import FIG10_NETWORKS

FIG10_METHODS = ("hasco", "sh_champion", "msh_champion", "unico")


def _panel(network: str, results: Dict[str, CoSearchResult]) -> RunRecord:
    """One workload's ablation panel."""
    reference = combined_reference(list(results.values()))
    record = RunRecord(f"fig10-{network}")
    record.put("network", network)
    hvs: Dict[str, float] = {}
    for method, result in results.items():
        hv = final_hypervolume(result, reference)
        hvs[method] = hv
        child = record.child(method)
        child.put("final_hv", hv)
        child.put("total_time_h", result.total_time_h)
    base = hvs.get("hasco", 0.0)
    for method, hv in hvs.items():
        if base > 0:
            record.child(method).put(
                "improvement_over_hasco_pct", 100.0 * (hv - base) / base
            )
    return record


def fig10_experiment(
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
    networks: Sequence[str] = FIG10_NETWORKS,
) -> Experiment:
    """The full ablation across workloads (edge) with mean improvements."""
    networks = list(networks)
    cells = tuple(
        RunSpec(method, "edge", network, preset, seed=seed)
        for network in networks
        for method in FIG10_METHODS
    )

    def reduce(results) -> RunRecord:
        record = RunRecord("fig10")
        per_method: Dict[str, list] = {method: [] for method in FIG10_METHODS}
        cell_results = iter(results)
        for network in networks:
            panel = _panel(
                network, {method: next(cell_results) for method in FIG10_METHODS}
            )
            record.children[network] = panel
            for method in FIG10_METHODS:
                value = panel.children[method].get("improvement_over_hasco_pct")
                if value is not None:
                    per_method[method].append(value)
        for method, values in per_method.items():
            if values:
                record.put(
                    f"mean_improvement_{method}_pct", float(np.mean(values))
                )
        return record

    return Experiment(cells, reduce)
