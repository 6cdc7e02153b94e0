#!/usr/bin/env python
"""Industrial deployment: tune an Ascend-like core for a video upscaler.

Reproduces the Fig. 11 workflow at small scale: UNICO explores the
Ascend-like design space (buffer sizes, bank groups, cube shape) under a
200 mm^2 area cap, driving the cycle-accurate engine through the
depth-first buffer-fusion mapping tool, and the result is compared against
the expert-selected default configuration.

Run:  python examples/ascend_deployment.py [network]
"""

import sys

from repro.experiments.harness import run_method, sw_search_on
from repro.hw.ascend import default_ascend_config


def main() -> None:
    network = sys.argv[1] if len(sys.argv) > 1 else "fsrcnn_120x320"
    default_hw = default_ascend_config()
    print(f"Workload: {network}")
    print(f"Expert default: {default_hw}")

    print("\nEvaluating the default with a fresh fusion-mapping search...")
    default_ppa = sw_search_on(default_hw, network, "ascend", budget=40, seed=0).best_ppa
    print(
        f"  default: {default_ppa.latency_s * 1e3:.2f} ms, "
        f"{default_ppa.power_w * 1e3:.0f} mW, {default_ppa.area_mm2:.1f} mm2"
    )

    print("\nRunning UNICO on the Ascend-like space "
          "(cycle-accurate engine, 4 slave workers)...")
    result = run_method("unico", "ascend", network, "smoke", seed=0)
    best = result.best_design()
    if best is None:
        print("No feasible design found at this tiny budget; try preset 'bench'.")
        return
    print(
        f"  UNICO:   {best.ppa.latency_s * 1e3:.2f} ms, "
        f"{best.ppa.power_w * 1e3:.0f} mW, {best.ppa.area_mm2:.1f} mm2 "
        f"(search cost {result.total_time_h:.1f} simulated h)"
    )
    print(f"  found HW: {best.hw}")

    latency_saving = 100 * (1 - best.ppa.latency_s / default_ppa.latency_s)
    power_saving = 100 * (1 - best.ppa.power_w / default_ppa.power_w)
    print(f"\nSavings vs default: latency {latency_saving:+.1f}%, "
          f"power {power_saving:+.1f}%")
    print(
        "L0 buffer rebalance (default -> UNICO): "
        f"L0A {default_hw.l0a_kb}->{best.hw.l0a_kb} KB, "
        f"L0B {default_hw.l0b_kb}->{best.hw.l0b_kb} KB, "
        f"L0C {default_hw.l0c_kb}->{best.hw.l0c_kb} KB"
    )


if __name__ == "__main__":
    main()
