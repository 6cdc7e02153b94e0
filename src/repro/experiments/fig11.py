"""Figure 11: UNICO deployment on the Ascend-like commercial architecture.

Section 4.6: UNICO (N = 8, MaxIter = 30, b_max = 200) co-optimizes the
Ascend-like core under a 200 mm^2 area cap, per workload
(UNET, FSRCNN at three resolutions, DLEU).  The found architecture is
compared with the expert-selected default on *latency and power relative
reduction*, both evaluated by the cycle-accurate model with an individual
SW mapping search each.

Expected shape: positive latency savings on the super-resolution workloads
and a large average power saving; the discovered configuration tends to
rebalance the L0 buffers relative to the cube-derived defaults.  Why it
wins shows in ``bottleneck_layers``: per design, how many layers each
pipeline stage limits under that design's own mappings.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.camodel.trace import trace_layer
from repro.experiments.harness import Experiment, RunSpec, sw_search_on
from repro.experiments.presets import Preset, get_preset
from repro.hw.ascend import default_ascend_config
from repro.utils.records import RunRecord
from repro.workloads.registry import FIG11_NETWORKS, get_network


def select_deployment_design(result, default_ppa):
    """Pick the Pareto design with the best worst-case ratio vs the default.

    Section 4.6's goal is "reducing both latency and power ... while not
    exceeding the area constraint", so the deployment decision minimizes
    ``max(latency / default_latency, power / default_power)`` over the
    found front — the design that improves the weaker of the two metrics
    the most.
    """
    best = None
    best_score = float("inf")
    for design in result.pareto.items:
        latency_ratio = design.ppa.latency_s / max(default_ppa.latency_s, 1e-30)
        power_ratio = design.ppa.power_w / max(default_ppa.power_w, 1e-30)
        score = max(latency_ratio, power_ratio)
        if score < best_score:
            best_score = score
            best = design
    return best


def bottleneck_layers(hw, mapping, network_name: str) -> Dict[str, int]:
    """How many of the network's mapped layers each pipeline stage limits
    (:func:`~repro.camodel.trace.trace_layer`'s bottleneck)."""
    tally: Dict[str, int] = {}
    for layer in get_network(network_name).layers:
        if layer.name in mapping:
            stage = trace_layer(hw, mapping[layer.name], layer.to_gemm()).bottleneck
            tally[stage.name] = tally.get(stage.name, 0) + 1
    return tally


def fig11_experiment(
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
) -> Experiment:
    """The industrial deployment study: one UNICO co-search per
    ``FIG11_NETWORKS`` workload, each against the expert default's own
    mapping search."""
    preset = get_preset(preset) if isinstance(preset, str) else preset
    networks = list(FIG11_NETWORKS)
    cells = tuple(
        RunSpec("unico", "ascend", network, preset, seed=seed)
        for network in networks
    )

    def reduce(results) -> RunRecord:
        default_hw = default_ascend_config()
        record = RunRecord("fig11")
        record.put("networks", networks)
        record.put("default_hw", str(default_hw))
        latency_savings = []
        power_savings = []
        for network_name, result in zip(networks, results):
            child = record.child(network_name)
            default_trial = sw_search_on(
                default_hw, network_name, "ascend", preset.ascend_budget, seed
            )
            default_ppa = default_trial.best_ppa
            best = select_deployment_design(result, default_ppa)
            child.put("default_latency_ms", default_ppa.latency_s * 1e3)
            child.put("default_power_mw", default_ppa.power_w * 1e3)
            child.put("search_cost_h", result.total_time_h)
            if best is None or not default_ppa.feasible:
                child.put("error", "no feasible design")
                continue
            child.put("unico_hw", str(best.hw))
            child.put("unico_latency_ms", best.ppa.latency_s * 1e3)
            child.put("unico_power_mw", best.ppa.power_w * 1e3)
            latency_saving = 100.0 * (
                default_ppa.latency_s - best.ppa.latency_s
            ) / max(default_ppa.latency_s, 1e-30)
            power_saving = 100.0 * (default_ppa.power_w - best.ppa.power_w) / max(
                default_ppa.power_w, 1e-30
            )
            child.put("latency_saving_pct", latency_saving)
            child.put("power_saving_pct", power_saving)
            latency_savings.append(latency_saving)
            power_savings.append(power_saving)
            child.put(
                "buffer_rebalance",
                {
                    "l0a_kb": {"default": default_hw.l0a_kb, "unico": best.hw.l0a_kb},
                    "l0b_kb": {"default": default_hw.l0b_kb, "unico": best.hw.l0b_kb},
                    "l0c_kb": {"default": default_hw.l0c_kb, "unico": best.hw.l0c_kb},
                },
            )
            child.put(
                "bottleneck_layers",
                {
                    "default": bottleneck_layers(
                        default_hw, default_trial.search.best_mapping, network_name
                    ),
                    "unico": bottleneck_layers(best.hw, best.mapping, network_name),
                },
            )
        if latency_savings:
            record.put("mean_latency_saving_pct", float(np.mean(latency_savings)))
            record.put("mean_power_saving_pct", float(np.mean(power_savings)))
        return record

    return Experiment(cells, reduce)
