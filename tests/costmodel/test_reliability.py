"""Failure-injection tests: flaky engines and the retry wrapper."""

import numpy as np
import pytest

from repro.costmodel import MaestroEngine
from repro.costmodel.reliability import FlakyEngine, RetryingEngine
from repro.errors import EvaluationError
from repro.mapping import FlexTensorSearch, GemmMapping

MAPPING = GemmMapping(4, 8, 4)


@pytest.fixture()
def flaky(tiny_network):
    inner = MaestroEngine(tiny_network)
    return FlakyEngine(inner, failure_rate=0.4, seed=0)


class TestFlakyEngine:
    def test_injects_failures(self, flaky, sample_hw, tiny_network):
        failures = 0
        space_samples = 0
        from repro.mapping import GemmMappingSpace

        space = GemmMappingSpace(tiny_network.layers[0].to_gemm())
        rng = np.random.default_rng(0)
        for _ in range(40):
            try:
                flaky.evaluate_layer(
                    sample_hw, space.sample(rng), tiny_network.layers[0].name
                )
            except EvaluationError:
                failures += 1
            space_samples += 1
        assert failures > 0
        assert flaky.num_injected_failures == failures

    def test_invalid_rate(self, tiny_network):
        with pytest.raises(EvaluationError):
            FlakyEngine(MaestroEngine(tiny_network), failure_rate=1.0)


class TestRetryingEngine:
    def test_recovers_from_transient_failures(self, tiny_network, sample_hw):
        inner = MaestroEngine(tiny_network)
        flaky = FlakyEngine(inner, failure_rate=0.4, seed=1)
        robust = RetryingEngine(flaky, max_attempts=6)
        result = robust.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert result.feasible

    def test_counts_retries(self, tiny_network, sample_hw):
        inner = MaestroEngine(tiny_network)
        flaky = FlakyEngine(inner, failure_rate=0.5, seed=2)
        robust = RetryingEngine(flaky, max_attempts=8)
        from repro.mapping import GemmMappingSpace

        space = GemmMappingSpace(tiny_network.layers[0].to_gemm())
        rng = np.random.default_rng(0)
        for _ in range(30):
            robust.evaluate_layer(
                sample_hw, space.sample(rng), tiny_network.layers[0].name
            )
        assert robust.num_retries > 0

    def test_gives_up_eventually(self, tiny_network, sample_hw):
        class AlwaysDown(MaestroEngine):
            def _compute_layer_by_name(self, hw, mapping, layer_name, shape):
                raise EvaluationError("service unreachable")

        down = AlwaysDown(tiny_network)
        robust = RetryingEngine(down, max_attempts=3)
        with pytest.raises(EvaluationError, match="after 3 attempts"):
            robust.evaluate_layer(sample_hw, MAPPING, "gemm")

    def test_retries_charge_the_clock(self, tiny_network, sample_hw):
        inner = MaestroEngine(tiny_network)
        flaky = FlakyEngine(inner, failure_rate=0.5, seed=3)
        robust = RetryingEngine(flaky, max_attempts=8)
        from repro.mapping import GemmMappingSpace

        space = GemmMappingSpace(tiny_network.layers[0].to_gemm())
        rng = np.random.default_rng(1)
        for _ in range(20):
            robust.evaluate_layer(
                sample_hw, space.sample(rng), tiny_network.layers[0].name
            )
        # clock charged for fresh queries AND failed attempts
        expected_min = 20 * robust.eval_cost_s
        assert robust.clock.now_s > expected_min

    def test_results_match_clean_engine(self, tiny_network, sample_hw):
        clean = MaestroEngine(tiny_network)
        flaky = FlakyEngine(MaestroEngine(tiny_network), failure_rate=0.4, seed=4)
        robust = RetryingEngine(flaky, max_attempts=10)
        a = clean.evaluate_layer(sample_hw, MAPPING, "gemm")
        b = robust.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert a.latency_s == b.latency_s

    def test_full_search_survives_flakiness(self, tiny_network, sample_hw):
        """An entire mapping search completes over a 30%-flaky service."""
        flaky = FlakyEngine(MaestroEngine(tiny_network), failure_rate=0.3, seed=5)
        robust = RetryingEngine(flaky, max_attempts=10)
        search = FlexTensorSearch(tiny_network, sample_hw, robust, seed=0)
        search.run(60)
        assert np.isfinite(search.best_objective)

    def test_invalid_attempts(self, tiny_network):
        with pytest.raises(EvaluationError):
            RetryingEngine(MaestroEngine(tiny_network), max_attempts=0)


class TestRetryingOverRemote:
    """RetryingEngine composed over RemotePPAEngine over a flaky service.

    The full Fig. 6(b) failure path: the server-side engine injects
    transient failures, the service surfaces them as HTTP 400s, the remote
    client maps those to EvaluationError, and the retry wrapper recovers.
    """

    @pytest.fixture()
    def stack(self, tiny_network):
        from repro.costmodel.maestro import spatial_area_mm2
        from repro.costmodel.service import PPAServiceServer, RemotePPAEngine

        backend = FlakyEngine(
            MaestroEngine(tiny_network), failure_rate=0.3, seed=7
        )
        with PPAServiceServer(backend) as server, RemotePPAEngine(
            tiny_network, server.url, area_fn=spatial_area_mm2
        ) as remote:
            robust = RetryingEngine(remote, max_attempts=10)
            yield backend, remote, robust

    def test_recovers_and_matches_clean_engine(self, stack, tiny_network, sample_hw):
        _backend, _remote, robust = stack
        clean = MaestroEngine(tiny_network)
        result = robust.evaluate_layer(sample_hw, MAPPING, "gemm")
        expected = clean.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert result.feasible
        assert result.latency_s == expected.latency_s
        assert result.energy_j == expected.energy_j

    def test_clock_charged_once_per_query_plus_failed_attempts(
        self, stack, sample_hw, tiny_network
    ):
        _backend, _remote, robust = stack
        from repro.mapping import GemmMappingSpace

        space = GemmMappingSpace(tiny_network.layers[1].to_gemm())
        rng = np.random.default_rng(3)
        queries = 25
        for _ in range(queries):
            robust.evaluate_layer(sample_hw, space.sample(rng), "gemm")
        assert robust.num_retries > 0  # flakiness actually exercised
        expected = (queries + robust.num_retries) * robust.eval_cost_s
        assert robust.clock.now_s == pytest.approx(expected)

    def test_cached_repeat_needs_no_retry_or_request(self, stack, sample_hw):
        backend, remote, robust = stack
        robust.evaluate_layer(sample_hw, MAPPING, "gemm")
        retries_before = robust.num_retries
        backend_queries = backend.num_queries
        robust.evaluate_layer(sample_hw, MAPPING, "gemm")
        assert robust.num_cache_hits == 1
        assert robust.num_retries == retries_before
        assert backend.num_queries == backend_queries  # never left the process

    def test_stats_compose_across_the_stack(self, stack, sample_hw):
        _backend, remote, robust = stack
        robust.evaluate_layer(sample_hw, MAPPING, "gemm")
        stats = robust.stats()
        assert stats["engine"] == "RetryingEngine"
        assert stats["num_queries"] == 1
        assert "num_retries" in stats
        assert stats["inner"]["engine"] == "RemotePPAEngine"
        (shard,) = stats["inner"]["fleet"]["shards"]
        assert shard["url"] == remote.router.shards[0].url
