"""End-to-end smoke test for the hardened estimation-service path.

The Fig. 6(b) deployment in miniature: a PPA service whose backend engine
fails 20% of fresh computations (the replica answers 500), a remote client
whose transport retries absorb them, and a full FlexTensor mapping search
driven through the stack.  The search must complete and land on exactly
the same history and best design as the same search against an
in-process engine — the service path is a transport, not a different
model.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.mapping.flextensor import FlexTensorSearch
from tests.costmodel.flaky_engine import FlakyEngine
from tests.costmodel.transport import tune

SEARCH_BUDGET = 40
SEED = 3


@pytest.fixture()
def flaky_service(tiny_network):
    backend = FlakyEngine(tiny_network, failure_rate=0.2, seed=9)
    with PPAServiceServer(backend) as server:
        yield server


@pytest.fixture(autouse=True)
def _retry_quickly(monkeypatch):
    tune(monkeypatch, max_network_retries=10, backoff_base_s=0.001)


def flaky_client(network, server):
    return RemotePPAEngine(network, server.url, area_fn=spatial_area_mm2)


class TestFlakyServiceSearch:
    def test_search_matches_in_process_engine(self, flaky_service, tiny_network,
                                              sample_hw):
        with flaky_client(tiny_network, flaky_service) as remote:
            remote_search = FlexTensorSearch(
                tiny_network, sample_hw, remote, seed=SEED
            )
            remote_search.run(SEARCH_BUDGET)
            remote_ppa = remote_search.best_ppa

        local_search = FlexTensorSearch(
            tiny_network, sample_hw, MaestroEngine(tiny_network), seed=SEED
        )
        local_search.run(SEARCH_BUDGET)

        assert np.isfinite(remote_search.best_objective)
        # bit-for-bit: JSON float round-tripping is exact, retries invisible
        assert remote_search.history == local_search.history
        assert remote_search.best_objective == local_search.best_objective
        assert remote_ppa.latency_s == local_search.best_ppa.latency_s
        assert remote_ppa.energy_j == local_search.best_ppa.energy_j
        assert remote_search.best_mapping == local_search.best_mapping

        # the flakiness was actually exercised and absorbed by the client
        assert flaky_service.engine.num_injected_failures > 0
        assert remote.num_network_retries == flaky_service.engine.num_injected_failures
        assert remote.num_queries == local_search.engine.num_queries

    def test_service_metrics_after_search(self, flaky_service, tiny_network,
                                          sample_hw):
        with flaky_client(tiny_network, flaky_service) as remote:
            FlexTensorSearch(tiny_network, sample_hw, remote, seed=SEED).run(10)
        with urllib.request.urlopen(flaky_service.url + "/metrics") as reply:
            snapshot = json.load(reply)
        assert snapshot["engine"]["num_queries"] > 0
        counters = snapshot["metrics"]["counters"]
        assert counters["service_requests_total[/evaluate_layers]"] > 0
