#!/usr/bin/env python
"""Quickstart: co-optimize a spatial accelerator for ResNet-50 with UNICO.

This walks the whole public API in one small run:

1. pick a workload from the registry,
2. build the edge design space and the analytical PPA engine,
3. run UNICO (Algorithm 1) with a small budget,
4. inspect the PPA Pareto front and the selected design.

Run:  python examples/quickstart.py
"""

from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.hw.spatial import edge_design_space, power_cap_for
from repro.workloads.registry import get_network


def main() -> None:
    network = get_network("resnet")
    print(f"Workload: {network.description}")
    print(f"  {network.num_unique_layers} unique layers, "
          f"{network.total_macs / 1e9:.2f} GMACs")

    space = edge_design_space()
    print(f"HW design space: {space.name}, {space.size:.3g} configurations")

    engine = MaestroEngine(network)
    config = UnicoConfig(
        batch_size=8,       # N hardware candidates per MOBO iteration
        max_iterations=4,   # MOBO trials
        max_budget=80,      # b_max: SW-mapping evaluations per survivor
        workers=8,          # parallel SW-search jobs (simulated makespan)
    )
    unico = Unico(
        space,
        network,
        engine,
        config,
        power_cap_w=power_cap_for("edge"),
        seed=0,
    )
    result = unico.optimize()

    print(f"\nEvaluated {result.total_hw_evaluated} hardware configurations "
          f"({result.total_engine_queries} PPA queries) in "
          f"{result.total_time_h:.2f} simulated hours")
    print(f"PPA Pareto front: {len(result.pareto)} designs")
    for design, point in zip(result.pareto.items, result.pareto.points):
        print(
            f"  {design.hw.short_name():<44s} "
            f"L={point[0] * 1e3:9.2f} ms  P={point[1] * 1e3:7.1f} mW  "
            f"A={point[2]:5.2f} mm2  R={design.robustness.r_value:.4f}"
        )

    best = result.best_design()
    print("\nSelected design (min Euclidean distance on the front):")
    print(f"  {best.hw}")
    print(
        f"  latency {best.ppa.latency_s * 1e3:.2f} ms, "
        f"power {best.ppa.power_w * 1e3:.1f} mW, "
        f"area {best.ppa.area_mm2:.2f} mm2, "
        f"robustness R = {best.robustness.r_value:.4f}"
    )


if __name__ == "__main__":
    main()
