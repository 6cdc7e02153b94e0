#!/usr/bin/env python
"""Multi-workload co-optimization (Fig. 6a): one HW, one SW job per DNN.

Finds a single hardware configuration serving BERT *and* MobileNet: each
sampled candidate spawns one software-mapping job per workload (they run
in parallel in the deployment; the co-optimizer's simulated clock charges
the queries they spent) and its PPA composes both — so the search cannot overfit the accelerator
to either network alone.

Run:  python examples/multi_workload.py
"""

from repro.core.multiworkload import multi_workload_trial_factory
from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.hw.spatial import edge_design_space, power_cap_for
from repro.workloads.registry import get_network


def main() -> None:
    networks = [get_network("bert"), get_network("mobilenet")]
    print("Co-optimizing one accelerator for: "
          + ", ".join(n.description for n in networks))

    engine, factory = multi_workload_trial_factory(networks, MaestroEngine)
    space = edge_design_space()
    unico = Unico(
        space,
        engine.network,
        engine,
        UnicoConfig(batch_size=6, max_iterations=3, max_budget=50, workers=8),
        trial_factory=factory,
        power_cap_w=power_cap_for("edge"),
        seed=0,
    )
    result = unico.optimize()

    print(f"\n{result.total_hw_evaluated} hardware candidates, "
          f"{result.total_time_h:.2f} simulated hours "
          f"({engine.num_queries} PPA queries across both workloads)")
    best = result.best_design()
    if best is None:
        print("no feasible design at this tiny budget")
        return
    print(f"selected HW: {best.hw}")
    print(
        f"aggregate: {best.ppa.latency_s * 1e3:.2f} ms total, "
        f"{best.ppa.power_w * 1e3:.0f} mW, {best.ppa.area_mm2:.2f} mm2, "
        f"worst-case R = {best.robustness.r_value:.4f}"
    )
    print("\nPer-workload latency share of the selected design:")
    for network in networks:
        prefix = network.name + "."
        layers = [k for k in best.mapping if k.startswith(prefix)]
        share = best.ppa.layer_results[network.name].latency_s / best.ppa.latency_s
        print(f"  {network.name:<12s} {len(layers)} mapped layers, "
              f"{100 * share:.1f}% of the latency")


if __name__ == "__main__":
    main()
