"""Figure 9: UNICO vs HASCO generalization to unseen DNNs.

Protocol of Section 4.4: co-optimize on {MobileNetV2, ResNet, SRGAN, VGG},
take each method's min-Euclidean-distance design, and run an individual SW
mapping search per unseen validation network.  The reported number per
validation network is the *gain ratio* — HASCO's normalized PPA distance to
the origin divided by UNICO's (> 1 means UNICO's hardware generalizes
better).  The paper reports a 44% average improvement.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.experiments.harness import Experiment, RunSpec, sw_search_on
from repro.experiments.presets import Preset, get_preset
from repro.utils.records import RunRecord
from repro.workloads.registry import FIG9_TRAIN, FIG9_VALIDATION


def ppa_distance(ppa_a: np.ndarray, ppa_b: np.ndarray) -> Dict[str, float]:
    """Distances-to-origin of two PPA vectors on a shared scale.

    Each component is normalized by the mean of the two observations, so
    the ratio of the two distances is bounded and symmetric (a min-max
    scaling over just two points would be degenerate whenever the vectors
    nearly coincide in one component).
    """
    stacked = np.vstack([ppa_a, ppa_b])
    scale = np.maximum(stacked.mean(axis=0), 1e-30)
    scaled = stacked / scale
    return {
        "a": float(np.linalg.norm(scaled[0])),
        "b": float(np.linalg.norm(scaled[1])),
    }


def shared_scale_best(result_a, result_b):
    """Each method's min-Euclidean design under a *shared* normalization.

    Selecting each design on its own front's min-max scale makes the picks
    incomparable when one method's front is much wider; normalizing over
    the union of both fronts removes that asymmetry.
    """
    points_a = result_a.pareto.points
    points_b = result_b.pareto.points
    if points_a.size == 0 or points_b.size == 0:
        return result_a.best_design(), result_b.best_design()
    union = np.vstack([points_a, points_b])
    low = union.min(axis=0)
    high = union.max(axis=0)
    span = np.where(high > low, high - low, 1.0)

    def pick(result, points):
        scaled = (points - low) / span
        index = int(np.argmin(np.linalg.norm(scaled, axis=1)))
        return result.pareto.items[index]

    return pick(result_a, points_a), pick(result_b, points_b)


def fig9_experiment(
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
) -> Experiment:
    """The generalization comparison: UNICO's and HASCO's co-searches on
    ``FIG9_TRAIN``, then each selected design's validation mapping searches
    on ``FIG9_VALIDATION``."""
    train_networks, validation_networks = FIG9_TRAIN, FIG9_VALIDATION
    preset = get_preset(preset) if isinstance(preset, str) else preset
    cells = tuple(
        RunSpec(method, "edge", list(train_networks), preset, seed=seed)
        for method in ("unico", "hasco")
    )

    def reduce(results) -> RunRecord:
        unico_result, hasco_result = results
        record = RunRecord("fig9")
        record.put("train_networks", list(train_networks))
        record.put("validation_networks", list(validation_networks))

        unico_best, hasco_best = shared_scale_best(unico_result, hasco_result)
        if unico_best is None or hasco_best is None:
            record.put("error", "a method produced no feasible design")
            return record
        record.put("unico_hw", str(unico_best.hw))
        record.put("hasco_hw", str(hasco_best.hw))
        record.put("unico_train_cost_h", unico_result.total_time_h)
        record.put("hasco_train_cost_h", hasco_result.total_time_h)

        gains = []
        for v_index, validation in enumerate(validation_networks):
            unico_trial = sw_search_on(
                unico_best.hw,
                validation,
                "edge",
                budget=preset.validation_budget,
                seed=seed * 100 + v_index,
            )
            hasco_trial = sw_search_on(
                hasco_best.hw,
                validation,
                "edge",
                budget=preset.validation_budget,
                seed=seed * 100 + v_index,
            )
            unico_ppa = unico_trial.best_ppa
            hasco_ppa = hasco_trial.best_ppa
            child = record.child(validation)
            child.put("unico_latency_ms", unico_ppa.latency_s * 1e3)
            child.put("hasco_latency_ms", hasco_ppa.latency_s * 1e3)
            child.put("unico_power_mw", unico_ppa.power_w * 1e3)
            child.put("hasco_power_mw", hasco_ppa.power_w * 1e3)
            if not (unico_ppa.feasible and hasco_ppa.feasible):
                gain = float("inf") if unico_ppa.feasible else 0.0
                child.put("gain_ratio", gain)
                continue
            unico_vec = np.array(
                [unico_ppa.latency_s, unico_ppa.power_w, unico_ppa.area_mm2]
            )
            hasco_vec = np.array(
                [hasco_ppa.latency_s, hasco_ppa.power_w, hasco_ppa.area_mm2]
            )
            distances = ppa_distance(unico_vec, hasco_vec)
            gain = distances["b"] / max(distances["a"], 1e-12)
            child.put("gain_ratio", gain)
            gains.append(gain)
        finite_gains = [g for g in gains if np.isfinite(g)]
        if finite_gains:
            record.put("mean_gain_ratio", float(np.mean(finite_gains)))
            record.put(
                "mean_improvement_pct",
                100.0 * (float(np.mean(finite_gains)) - 1.0),
            )
            record.put(
                "fraction_unico_wins",
                float(np.mean([g >= 1.0 for g in finite_gains])),
            )
        return record

    return Experiment(cells, reduce)
