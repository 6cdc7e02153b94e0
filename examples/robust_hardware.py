#!/usr/bin/env python
"""Robust hardware search: the sensitivity metric R in action (Section 4.3).

1. Co-optimize on a multi-workload training set WITHOUT the robustness
   objective.
2. Inspect the Pareto front's R values — designs with similar PPA can have
   very different sensitivity to the software-mapping search.
3. Transfer the most- and least-robust comparable designs to an unseen
   workload with a fresh SW mapping search and compare.

Run:  python examples/robust_hardware.py
"""

import numpy as np

from repro.experiments.harness import run_method, sw_search_on
from repro.experiments.fig8 import select_comparable_pairs

TRAIN = ["srgan", "bert"]
UNSEEN = "mobilenet"


def main() -> None:
    print(f"Training workloads: {TRAIN}; unseen workload: {UNSEEN!r}")
    result = run_method("unico_no_r", "edge", TRAIN, "smoke", seed=3)
    designs = list(result.pareto.items)
    print(f"\nPareto front ({len(designs)} designs) with post-hoc R values:")
    for design, point in zip(designs, result.pareto.points):
        print(
            f"  {design.hw.short_name():<44s} "
            f"L={point[0] * 1e3:9.2f} ms  P={point[1] * 1e3:7.1f} mW  "
            f"R={design.robustness.r_value:.4f}"
        )

    pairs = select_comparable_pairs(designs, tolerance=0.10)
    tolerance = 0.10
    while not pairs and tolerance < 1.0 and len(designs) >= 2:
        tolerance *= 2
        pairs = select_comparable_pairs(designs, tolerance)
    if not pairs:
        print("\nNo comparable pair on this small front — rerun with a "
              "larger budget (preset 'bench').")
        return

    i, j = pairs[0]
    robust, fragile = (
        (designs[i], designs[j])
        if designs[i].robustness.r_value <= designs[j].robustness.r_value
        else (designs[j], designs[i])
    )
    print(f"\nComparable pair (PPA within {tolerance:.0%}):")
    print(f"  robust : {robust.hw.short_name()}  R={robust.robustness.r_value:.4f}")
    print(f"  fragile: {fragile.hw.short_name()}  R={fragile.robustness.r_value:.4f}")

    print(f"\nTransferring both to unseen workload {UNSEEN!r}...")
    latencies = {}
    for label, design in (("robust", robust), ("fragile", fragile)):
        trial = sw_search_on(design.hw, UNSEEN, "edge", budget=60, seed=0)
        latencies[label] = trial.best_ppa.latency_s
        print(f"  {label:<7s} latency on {UNSEEN}: "
              f"{latencies[label] * 1e3:.2f} ms")
    gain = 100.0 * (latencies["fragile"] - latencies["robust"]) / latencies["fragile"]
    print(f"\nLower-R design is {gain:+.1f}% "
          f"{'better' if gain >= 0 else 'worse'} on the unseen workload.")


if __name__ == "__main__":
    main()
