"""End-to-end smoke test for the hardened estimation-service path.

The Fig. 6(b) deployment in miniature: a PPA service whose backend engine
injects transient failures on 20% of fresh computations, a retrying remote
client, and a full FlexTensor mapping search driven through the stack.
The search must complete and land on exactly the same best design as the
same search against an in-process engine — the service path is a transport,
not a different model.
"""

import numpy as np
import pytest

from repro.costmodel import FlakyEngine, MaestroEngine, RetryingEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.mapping import FlexTensorSearch

SEARCH_BUDGET = 40
SEED = 3


@pytest.fixture()
def flaky_service(tiny_network):
    backend = FlakyEngine(MaestroEngine(tiny_network), failure_rate=0.2, seed=9)
    with PPAServiceServer(backend) as server:
        yield server


class TestFlakyServiceSearch:
    def test_search_matches_in_process_engine(self, flaky_service, tiny_network,
                                              sample_hw):
        remote = RemotePPAEngine(
            tiny_network, flaky_service.url, area_fn=spatial_area_mm2
        )
        robust = RetryingEngine(remote, max_attempts=10)
        remote_search = FlexTensorSearch(
            tiny_network, sample_hw, robust, seed=SEED
        )
        remote_search.run(SEARCH_BUDGET)

        local_search = FlexTensorSearch(
            tiny_network, sample_hw, MaestroEngine(tiny_network), seed=SEED
        )
        local_search.run(SEARCH_BUDGET)

        assert np.isfinite(remote_search.best_objective)
        # bit-for-bit: JSON float round-tripping is exact, retries invisible
        assert remote_search.best_objective == local_search.best_objective
        assert remote_search.best_ppa.latency_s == local_search.best_ppa.latency_s
        assert remote_search.best_ppa.energy_j == local_search.best_ppa.energy_j
        assert remote_search.best_mapping == local_search.best_mapping

        # the flakiness was actually exercised and absorbed by the stack
        assert flaky_service.engine.num_injected_failures > 0
        assert robust.num_retries == flaky_service.engine.num_injected_failures
        assert robust.num_queries == local_search.engine.num_queries

    def test_service_metrics_after_search(self, flaky_service, tiny_network,
                                          sample_hw):
        remote = RemotePPAEngine(
            tiny_network, flaky_service.url, area_fn=spatial_area_mm2
        )
        robust = RetryingEngine(remote, max_attempts=10)
        FlexTensorSearch(tiny_network, sample_hw, robust, seed=SEED).run(10)
        snapshot = remote.service_metrics()["shard-0"]
        assert snapshot["engine"]["num_queries"] > 0
        counters = snapshot["metrics"]["counters"]
        assert counters["service_requests_total[/evaluate_layer]"] > 0
