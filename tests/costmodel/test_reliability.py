"""Failure injection: the remote engine's one retry policy over a flaky replica.

The replica serves :class:`~tests.costmodel.flaky_engine.FlakyEngine`, which
fails a seeded fraction of fresh computations with a 500;
:class:`~repro.costmodel.service.RemotePPAEngine` retries the exchange.
"""

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.errors import EvaluationError, TransportError
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gemm_mapping import GemmMapping, GemmMappingSpace
from tests.costmodel.flaky_engine import FlakyEngine, InjectedFailure
from tests.costmodel.transport import tune

MAPPING = GemmMapping(4, 8, 4)


@pytest.fixture(autouse=True)
def _retry_quickly(monkeypatch):
    tune(monkeypatch, max_network_retries=20, backoff_base_s=0.001)


def remote_over(backend):
    """A served ``backend`` and a remote engine on it."""
    server = PPAServiceServer(backend)
    remote = RemotePPAEngine(backend.network, server.url, area_fn=spatial_area_mm2)
    return server, remote


@pytest.fixture()
def flaky(tiny_network):
    return FlakyEngine(tiny_network, failure_rate=0.4, seed=0)


@pytest.fixture()
def stack(tiny_network):
    backend = FlakyEngine(tiny_network, failure_rate=0.3, seed=7)
    server, remote = remote_over(backend)
    with server, remote:
        yield backend, remote


def sampled_mappings(network, count, seed):
    space = GemmMappingSpace(network.layers[0].to_gemm())
    rng = np.random.default_rng(seed)
    return [space.sample(rng) for _ in range(count)]


class TestFlakyEngine:
    def test_injects_failures(self, flaky, sample_hw, tiny_network):
        failures = 0
        for mapping in sampled_mappings(tiny_network, 40, seed=0):
            try:
                flaky.evaluate_layer(sample_hw, mapping, tiny_network.layers[0].name)
            except InjectedFailure:
                failures += 1
        assert failures > 0
        assert flaky.num_injected_failures == failures

    def test_invalid_rate(self, tiny_network):
        with pytest.raises(EvaluationError):
            FlakyEngine(tiny_network, failure_rate=1.0)


class TestRetryingEngine:
    """:class:`RemotePPAEngine` is the engine that retries."""

    def test_recovers_from_transient_failures(self, tiny_network, sample_hw):
        server, remote = remote_over(
            FlakyEngine(tiny_network, failure_rate=0.4, seed=1)
        )
        with server, remote:
            assert remote.evaluate_layer(sample_hw, MAPPING, "gemm").feasible

    def test_counts_retries(self, tiny_network, sample_hw):
        backend = FlakyEngine(tiny_network, failure_rate=0.5, seed=2)
        server, remote = remote_over(backend)
        with server, remote:
            for mapping in sampled_mappings(tiny_network, 30, seed=0):
                remote.evaluate_layer(sample_hw, mapping, tiny_network.layers[0].name)
        assert remote.num_network_retries > 0
        # one 500 per injected failure, each absorbed by one retry
        assert remote.num_network_retries == backend.num_injected_failures

    def test_gives_up_eventually(self, tiny_network, sample_hw, monkeypatch):
        class AlwaysDown(MaestroEngine):
            def _compute_layer(self, hw, mapping, shape):
                raise InjectedFailure("service broken")

        tune(monkeypatch, max_network_retries=2)
        server, remote = remote_over(AlwaysDown(tiny_network))
        with server, remote:
            with pytest.raises(TransportError, match="service error 500"):
                remote.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert remote.num_network_retries == 2

    def test_results_match_clean_engine(self, tiny_network, sample_hw):
        clean = MaestroEngine(tiny_network)
        server, remote = remote_over(
            FlakyEngine(tiny_network, failure_rate=0.4, seed=4)
        )
        with server, remote:
            result = remote.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert result == clean.evaluate_layer(sample_hw, MAPPING, "gemm")

    def test_full_search_survives_flakiness(self, tiny_network, sample_hw):
        """An entire mapping search completes over a 30%-flaky replica."""
        backend = FlakyEngine(tiny_network, failure_rate=0.3, seed=5)
        server, remote = remote_over(backend)
        with server, remote:
            search = FlexTensorSearch(tiny_network, sample_hw, remote, seed=0)
            search.run(60)
        assert np.isfinite(search.best_objective)
        assert backend.num_injected_failures > 0


class TestRetryingOverRemote:
    """The full Fig. 6(b) failure path: the served engine fails, the
    replica answers 500, and the client's transport retries recover."""

    def test_recovers_and_matches_clean_engine(self, stack, tiny_network, sample_hw):
        _backend, remote = stack
        clean = MaestroEngine(tiny_network)
        result = remote.evaluate_layer(sample_hw, MAPPING, "gemm")
        expected = clean.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert result.feasible
        assert result.latency_s == expected.latency_s
        assert result.energy_j == expected.energy_j

    def test_clock_charged_once_per_query_only(
        self, stack, sample_hw, tiny_network
    ):
        _backend, remote = stack
        space = GemmMappingSpace(tiny_network.layers[1].to_gemm())
        rng = np.random.default_rng(3)
        queries = 25
        for _ in range(queries):
            remote.evaluate_layer(sample_hw, space.sample(rng), "gemm")
        assert remote.num_network_retries > 0  # flakiness actually exercised
        # a retried query is one query: what a co-optimizer charges for
        assert remote.num_queries == queries

    def test_cached_repeat_needs_no_retry_or_request(self, stack, sample_hw):
        """A repeat is answered from the replica's cache: no retry, and no
        request of the flaky engine behind it."""
        backend, remote = stack
        remote.evaluate_layer(sample_hw, MAPPING, "gemm")
        retries_before = remote.num_network_retries
        backend_queries = backend.num_queries
        remote.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert remote.num_network_retries == retries_before
        assert backend.num_queries == backend_queries  # never reached the engine
