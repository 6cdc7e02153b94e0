"""Figure 8: is the metric R a reliable indicator of HW generalization?

Protocol of Section 4.3:

1. run UNICO *without* the sensitivity objective on the training set
   {UNET, SRGAN, BERT} (merged multi-workload),
2. on the resulting Pareto front, select pairs of designs whose training
   PPAs differ by less than :data:`PAIR_TOLERANCE` (10% in the paper),
3. compute R for each member (the robustness metric is recorded for every
   evaluated design regardless of whether it was an objective),
4. run an individual SW mapping search for each member on every validation
   network {ResNet, ResUNet, VIT, MobileNet},
5. check that the lower-R member of each pair achieves lower average
   validation latency.

The headline statistic is ``fraction_pairs_consistent`` — how often the
more-robust (smaller R) design wins on unseen workloads.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.base import HWDesign
from repro.experiments.harness import Experiment, RunSpec, sw_search_on
from repro.experiments.presets import Preset, get_preset
from repro.utils.records import RunRecord
from repro.workloads.registry import FIG8_TRAIN, FIG8_VALIDATION

#: relative PPA difference under which two front designs are a pair
PAIR_TOLERANCE = 0.10


def select_comparable_pairs(
    designs: Sequence[HWDesign],
    tolerance: float = 0.10,
    max_pairs: int = 3,
) -> List[Tuple[int, int]]:
    """Indices of design pairs with similar PPA but different R.

    Similarity: every PPA component within ``tolerance`` relative
    difference.  Pairs are ranked by how much their R values differ, so the
    contrast the figure relies on is maximal.
    """
    candidates: List[Tuple[float, int, int]] = []
    for i in range(len(designs)):
        for j in range(i + 1, len(designs)):
            a = designs[i].ppa_vector
            b = designs[j].ppa_vector
            relative = np.abs(a - b) / np.maximum(np.abs(a), 1e-30)
            if np.all(relative <= tolerance):
                r_i = designs[i].robustness.r_value
                r_j = designs[j].robustness.r_value
                if np.isfinite(r_i) and np.isfinite(r_j) and r_i != r_j:
                    candidates.append((-abs(r_i - r_j), i, j))
    candidates.sort()
    return [(i, j) for _gap, i, j in candidates[:max_pairs]]


def fig8_experiment(
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
    train_networks: Sequence[str] = FIG8_TRAIN,
    validation_networks: Sequence[str] = FIG8_VALIDATION,
) -> Experiment:
    """The full R-reliability study: one co-search, then the pairs'
    validation mapping searches."""
    preset = get_preset(preset) if isinstance(preset, str) else preset
    cell = RunSpec("unico_no_r", "edge", list(train_networks), preset, seed=seed)

    def reduce(results) -> RunRecord:
        (result,) = results
        designs = list(result.pareto.items)
        record = RunRecord("fig8")
        record.put("train_networks", list(train_networks))
        record.put("validation_networks", list(validation_networks))
        record.put("pareto_size", len(designs))
        record.put(
            "pareto_points",
            [
                {
                    "latency_ms": d.ppa.latency_s * 1e3,
                    "power_mw": d.ppa.power_w * 1e3,
                    "r_value": d.robustness.r_value,
                }
                for d in designs
            ],
        )

        pairs = select_comparable_pairs(designs, PAIR_TOLERANCE)
        # widen the tolerance if the front is too sparse for close pairs
        widened = PAIR_TOLERANCE
        while not pairs and widened < 1.0 and len(designs) >= 2:
            widened *= 2.0
            pairs = select_comparable_pairs(designs, widened)
        record.put("pair_tolerance_used", widened)
        record.put("num_pairs", len(pairs))

        consistent = 0
        for pair_index, (i, j) in enumerate(pairs):
            robust_idx, fragile_idx = (
                (i, j)
                if designs[i].robustness.r_value <= designs[j].robustness.r_value
                else (j, i)
            )
            pair_record = record.child(f"pair_{pair_index}")
            latencies = {"robust": [], "fragile": []}
            for v_index, validation in enumerate(validation_networks):
                for label, idx in (("robust", robust_idx), ("fragile", fragile_idx)):
                    trial = sw_search_on(
                        designs[idx].hw,
                        validation,
                        "edge",
                        budget=preset.validation_budget,
                        seed=seed * 100 + v_index,
                    )
                    latency = trial.best_ppa.latency_s
                    latencies[label].append(latency)
                    pair_record.child(validation).put(
                        f"{label}_latency_ms",
                        latency * 1e3 if np.isfinite(latency) else float("inf"),
                    )
            robust_mean = float(np.mean(latencies["robust"]))
            fragile_mean = float(np.mean(latencies["fragile"]))
            pair_record.put("robust_r", designs[robust_idx].robustness.r_value)
            pair_record.put("fragile_r", designs[fragile_idx].robustness.r_value)
            pair_record.put("robust_mean_latency_ms", robust_mean * 1e3)
            pair_record.put("fragile_mean_latency_ms", fragile_mean * 1e3)
            wins = robust_mean <= fragile_mean
            pair_record.put("robust_wins", bool(wins))
            if wins:
                gain = 100.0 * (fragile_mean - robust_mean) / max(
                    fragile_mean, 1e-30
                )
                pair_record.put("robust_gain_pct", gain)
                consistent += 1
        record.put(
            "fraction_pairs_consistent",
            consistent / len(pairs) if pairs else None,
        )
        return record

    return Experiment((cell,), reduce)
