#!/usr/bin/env python
"""Compare UNICO against HASCO, NSGA-II and MOBOHB on one workload.

Reproduces a single panel of Fig. 7 at small scale: every method co-searches
the edge design space for BERT, then hypervolume-difference-vs-time curves
are printed as an ASCII chart (lower = closer to the reference front).

Run:  python examples/compare_methods.py [network]
"""

import sys

import numpy as np

from repro.experiments.harness import (
    combined_reference,
    hv_difference_curve,
    ideal_front,
    run_method,
    time_grid,
)
from repro.optim.hypervolume import hypervolume

METHODS = ("hasco", "nsgaii", "mobohb", "unico")


def ascii_curve(values, width: int = 40) -> str:
    """Render a curve as a bar per sample (longer bar = larger HV gap)."""
    top = max(max(values), 1e-12)
    return "\n".join(
        f"    t{i:02d} |{'#' * int(round(width * v / top)):<{width}s}| {v:.4f}"
        for i, v in enumerate(values)
    )


def main() -> None:
    network = sys.argv[1] if len(sys.argv) > 1 else "bert"
    print(f"Co-searching the edge design space for {network!r} "
          f"with {', '.join(METHODS)} (smoke-scale budgets)...")
    results = {
        method: run_method(method, "edge", network, "smoke", seed=0)
        for method in METHODS
    }
    all_results = list(results.values())
    reference = combined_reference(all_results)
    ideal_hv = hypervolume(ideal_front(all_results), reference)
    grid = time_grid(all_results, num_points=12)

    print(f"\nReference hypervolume: {ideal_hv:.4f}")
    for method, result in results.items():
        curve = hv_difference_curve(result, reference, ideal_hv, grid)
        values = [v for _t, v in curve]
        print(
            f"\n{method.upper():<8s} "
            f"(simulated cost {result.total_time_h:.2f} h, "
            f"{result.total_hw_evaluated} hardware evaluated)"
        )
        print(ascii_curve(values))

    print("\nSelected designs (min-Euclidean on each front):")
    for method, result in results.items():
        best = result.best_design()
        if best is None:
            print(f"  {method:<8s} no feasible design")
            continue
        print(
            f"  {method:<8s} L={best.ppa.latency_s * 1e3:9.2f} ms  "
            f"P={best.ppa.power_w * 1e3:7.1f} mW  A={best.ppa.area_mm2:5.2f} mm2"
        )


if __name__ == "__main__":
    main()
