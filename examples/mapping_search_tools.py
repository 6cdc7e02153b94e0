#!/usr/bin/env python
"""Inner-level tour: software-mapping search tools on a fixed hardware.

Shows the anytime/resumable contract UNICO builds on (Section 2.1):

* every tool exposes a monotone best-so-far curve,
* searches can be paused and resumed (the successive-halving primitive),
* FlexTensor-like and GAMMA-like search beat random sampling,
* the robustness metric R is computed from the very same trace.

Run:  python examples/mapping_search_tools.py
"""

from repro.core.robustness import robustness_metric
from repro.costmodel.engine import MaestroEngine
from repro.hw.spatial import edge_design_space
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch
from repro.workloads.registry import get_network


def sparkline(curve, buckets: int = 24) -> str:
    """Coarse text rendering of a descending loss curve."""
    blocks = " .:-=+*#%@"
    lo, hi = min(curve), max(curve)
    span = (hi - lo) or 1.0
    step = max(1, len(curve) // buckets)
    sampled = curve[::step][:buckets]
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
        for v in sampled
    )


def main() -> None:
    network = get_network("xception")
    hw = edge_design_space().to_config(
        {
            "pe_x": 12,
            "pe_y": 12,
            "l1_bytes": 6144,
            "l2_kb": 512,
            "noc_bw": 128,
            "dataflow": "ws",
        }
    )
    print(f"Workload: {network.description}")
    print(f"Hardware: {hw.short_name()}\n")

    for tool_cls in (FlexTensorSearch, GammaSearch, RandomMappingSearch):
        engine = MaestroEngine(network)
        search = tool_cls(network, hw, engine, seed=1)
        search.run(80)
        midway = search.best_objective
        search.run(120)  # resume, as a successive-halving round would
        curve = search.best_curve()
        robustness = robustness_metric(search.history)
        print(f"{search.name:<12s} "
              f"80 evals: {midway * 1e3:8.2f} ms -> "
              f"200 evals: {search.best_objective * 1e3:8.2f} ms   "
              f"R={robustness.r_value:.4f}")
        print(f"{'':<12s} convergence {sparkline(list(curve))}")

    print("\n(The monotone curves above are exactly what MSH's AUC "
          "criterion integrates, and the trial scatter behind them is what "
          "the robustness metric samples.)")


if __name__ == "__main__":
    main()
