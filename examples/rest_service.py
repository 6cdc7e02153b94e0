#!/usr/bin/env python
"""Master-slave deployment: the PPA engine as a REST service (Fig. 6b).

Section 3.5 describes the PPA estimation engine as "a standalone REST API
to call".  This example spins one up in-process, points a remote-engine
client at it, and runs a software-mapping search entirely over HTTP —
exactly how slave workstations would talk to a shared estimation service.

Run:  python examples/rest_service.py
"""

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.hw.spatial import edge_design_space
from repro.mapping.flextensor import FlexTensorSearch
from repro.workloads.registry import get_network


def main() -> None:
    network = get_network("mobilenet")
    hw = edge_design_space().to_config(
        {
            "pe_x": 8,
            "pe_y": 8,
            "l1_bytes": 4096,
            "l2_kb": 256,
            "noc_bw": 128,
            "dataflow": "ws",
        }
    )

    backend = MaestroEngine(network)
    with PPAServiceServer(backend) as server, RemotePPAEngine(
        network, server.url, area_fn=spatial_area_mm2
    ) as client:
        print(f"PPA service for {network.name!r} listening at {server.url}")
        print(f"health check: {client.health()}")

        print("\nRunning a FlexTensor-like mapping search through the service...")
        search = FlexTensorSearch(network, hw, client, seed=0)
        search.run(120)
        ppa = search.best_ppa
        print(
            f"best mapping after 120 evaluations: "
            f"{ppa.latency_s * 1e3:.2f} ms, {ppa.power_w * 1e3:.0f} mW"
        )
        print(
            f"client issued {client.num_queries} queries "
            f"({client.num_cache_hits} served from the local cache); "
            f"the service computed {backend.num_queries - backend.num_cache_hits} "
            f"fresh analyses"
        )
    print("service stopped.")


if __name__ == "__main__":
    main()
