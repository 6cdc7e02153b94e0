#!/usr/bin/env python
"""Pipeline bottleneck analysis on the Ascend-like cycle-accurate model.

Shows the observability tooling around the CA simulator: for one FSRCNN
layer, trace how the six-stage tile pipeline behaves under three mappings
(naive small tiles / capacity-aware tiles / fused chain) and read off
which stage limits each.

Run:  python examples/bottleneck_analysis.py
"""

from repro.camodel.ascend_sim import simulate_layer
from repro.camodel.trace import explain_layer
from repro.hw.ascend import default_ascend_config
from repro.mapping.ascend_mapping import AscendMapping, AscendMappingSpace
from repro.workloads.registry import get_network


def main() -> None:
    network = get_network("fsrcnn_240x640")
    layer = network.layer("map")
    shape = layer.to_gemm()
    hw = default_ascend_config()
    print(f"Workload layer: {layer.name} of {network.name} "
          f"(GEMM {shape.m} x {shape.n} x {shape.k})")
    print(f"Hardware: {hw.short_name()}\n")

    space = AscendMappingSpace(shape)
    candidates = {
        "naive small tiles": AscendMapping(tile_m=4, tile_n=64, tile_k=4),
        "capacity-aware tiles": space.seeded_mapping_for(hw),
        "fused chain": AscendMapping(
            tile_m=space.seeded_mapping_for(hw).tile_m,
            tile_n=space.seeded_mapping_for(hw).tile_n,
            tile_k=space.seeded_mapping_for(hw).tile_k,
            fuse_input=True,
            fuse_output=True,
        ),
    }
    for label, mapping in candidates.items():
        result = simulate_layer(hw, mapping, shape)
        print(f"--- {label}: tiles {mapping.tiles()}, "
              f"fuse in/out {mapping.fuse_input}/{mapping.fuse_output}")
        if not result.feasible:
            print(f"    infeasible: {result.infeasible_reason}\n")
            continue
        print(f"    latency {result.latency_s * 1e3:.3f} ms")
        print("    " + explain_layer(hw, mapping, shape).replace("\n", "\n    "))
        print()


if __name__ == "__main__":
    main()
