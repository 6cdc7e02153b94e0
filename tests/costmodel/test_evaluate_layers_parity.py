"""``evaluate_layers`` is the one batched core: parity on every route.

A cross-layer batch must be indistinguishable — results, every count in
``stats()`` and the metrics registry, simulated clock, and the flattened
``sample_sink`` stream — from the same items sent one by one through
``evaluate_layer``, whether the misses are computed in process or travel
through the one remote engine to one replica or two.  What may differ is
what the single call buys: one sink call carrying all of its misses, and
(the count guards at the bottom) one POST per look-ahead call.
"""

import numpy as np
import pytest

from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine, VECTOR_KERNEL_MIN_GROUP
from repro.costmodel.timeloop import TimeloopEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.mapping.gemm_mapping import GemmMapping, GemmMappingSpace
from repro.mapping.random_search import RandomMappingSearch

#: the three remote kinds are all ``RemotePPAEngine``: ``remote`` is one URL;
#: ``sharded1`` is one URL at ``batch_size=3`` (a lone replica still gets
#: the call as one request: the cut is for fleets); ``sharded2`` is two
#: URLs (placement + concurrent fan-out of ``batch_size`` chunks)
ENGINE_KINDS = ["maestro", "timeloop", "remote", "sharded1", "sharded2"]


@pytest.fixture(scope="module")
def replicas(tiny_network):
    servers = [PPAServiceServer(MaestroEngine(tiny_network)) for _ in range(2)]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


@pytest.fixture()
def make_engine(tiny_network, replicas):
    """Factory for a fresh engine (cold client cache) of the given kind."""
    opened = []

    def make(kind):
        if kind == "maestro":
            return MaestroEngine(tiny_network)
        if kind == "timeloop":
            return TimeloopEngine(tiny_network)
        if kind == "remote":
            engine = RemotePPAEngine(
                tiny_network, replicas[0].url, area_fn=spatial_area_mm2
            )
        else:
            shards = int(kind[len("sharded"):])
            engine = RemotePPAEngine(
                tiny_network,
                [server.url for server in replicas[:shards]],
                area_fn=spatial_area_mm2,
                batch_size=3,
            )
        opened.append(engine)
        return engine

    yield make
    for engine in opened:
        engine.close()


def _scenario(name, tiny_network):
    """``(warm-up items, batch items)`` of one parity scenario."""
    a, b, c, d = (
        GemmMapping(4, 8, 4),
        GemmMapping(8, 8, 8),
        GemmMapping(2, 4, 4),
        GemmMapping(4, 16, 8),
    )
    mixed = [(a, "gemm"), (b, "conv"), (c, "pw"), (d, "gemm"), (a, "conv")]
    if name == "mixed":
        return [], mixed
    if name == "duplicates":
        # five distinct keys and a repeat of the first: 5 samples, 1 hit
        return [], mixed + [(a, "gemm")]
    if name == "warm":
        return [(d, "gemm"), (b, "conv")], mixed
    assert name == "crossover"
    rng = np.random.default_rng(5)
    gemm = GemmMappingSpace(tiny_network.layers[1].to_gemm())
    conv = GemmMappingSpace(tiny_network.layers[0].to_gemm())
    wide = [(gemm.sample(rng), "gemm") for _ in range(VECTOR_KERNEL_MIN_GROUP + 3)]
    narrow = [(conv.sample(rng), "conv") for _ in range(VECTOR_KERNEL_MIN_GROUP - 1)]
    # interleaved, so grouping by layer has real work to do
    return [], wide[:4] + narrow + wide[4:]


def _recording_sink(calls):
    """The sink protocol: ``sink(hw, samples)``, once per engine call."""

    def sink(hw, samples):
        calls.append(
            [
                (layer_name, mapping.key(), shape, result)
                for layer_name, mapping, shape, result in samples
            ]
        )

    return sink


#: what batching is allowed to change in ``stats()``; remote engines add
#: transport sections (``pool``, ``fleet``) that count requests, not queries
_BATCH_SHAPED = {"batch_queries", "batch_items", "mean_batch_size", "pool", "fleet"}

_QUERY_COUNTERS = (
    "engine_queries_total",
    "engine_cache_hits_total",
    "engine_cache_misses_total",
    "engine_cache_evictions_total",
)


@pytest.mark.parametrize("scenario", ["mixed", "duplicates", "warm", "crossover"])
@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_evaluate_layers_matches_sequential(
    kind, scenario, make_engine, tiny_network, sample_hw
):
    batched, sequential = make_engine(kind), make_engine(kind)
    batched_calls, sequential_calls = [], []
    batched.sample_sink = _recording_sink(batched_calls)
    sequential.sample_sink = _recording_sink(sequential_calls)
    warm, items = _scenario(scenario, tiny_network)
    for engine in (batched, sequential):
        for mapping, layer_name in warm:
            engine.evaluate_layer(sample_hw, mapping, layer_name)

    got = batched.evaluate_layers(sample_hw, items)
    want = [
        sequential.evaluate_layer(sample_hw, mapping, layer_name)
        for mapping, layer_name in items
    ]

    assert got == want
    assert batched.num_queries == sequential.num_queries == len(warm) + len(items)
    assert batched.num_cache_hits == sequential.num_cache_hits
    assert batched.clock.now_s == sequential.clock.now_s
    # one sink call per engine call that computed something: the batch's
    # misses arrive together, in miss order; flattened, the streams agree
    batched_log = [sample for call in batched_calls for sample in call]
    assert batched_log == [sample for call in sequential_calls for sample in call]
    assert all(len(call) == 1 for call in sequential_calls)
    assert [len(call) for call in batched_calls] == [1] * len(warm) + [
        len(batched_log) - len(warm)
    ]
    # every count agrees, in stats() and in the registry
    stats, reference = batched.stats(), sequential.stats()
    assert {k: v for k, v in stats.items() if k not in _BATCH_SHAPED} == {
        k: v for k, v in reference.items() if k not in _BATCH_SHAPED
    }
    # the warm-up's one-item calls are groups too
    assert (stats["batch_queries"], stats["batch_items"]) == (
        len(warm) + 1, len(warm) + len(items)
    )
    for name in _QUERY_COUNTERS:
        assert batched.metrics.counter_value(name) == (
            sequential.metrics.counter_value(name)
        ), name
    hits = batched.num_cache_hits
    assert batched.metrics.counter_value("engine_queries_total") == batched.num_queries
    assert batched.metrics.counter_value("engine_cache_hits_total") == hits
    assert batched.metrics.counter_value("engine_cache_misses_total") == (
        batched.num_queries - hits
    )
    assert batched.metrics.counter_value("engine_batch_queries_total") == len(warm) + 1
    if scenario == "duplicates":
        # at the parent commit a replica route reported samples=0, hits=0
        assert len(batched_log) == 5
        assert batched.num_cache_hits == 1
    if kind != "timeloop":
        # every route computes with the same model: remote == local
        local = MaestroEngine(tiny_network)
        assert got == [
            local.evaluate_layer(sample_hw, mapping, layer_name)
            for mapping, layer_name in items
        ]


def test_kernel_chosen_from_group_size(tiny_network, sample_hw):
    """Only a layer group at the crossover width reaches the vector kernel."""
    widths = []

    class SpyEngine(MaestroEngine):
        def _compute_layer_batch(self, hw, mappings, layer_name, shape):
            widths.append((layer_name, len(mappings)))
            return super()._compute_layer_batch(hw, mappings, layer_name, shape)

    _warm, items = _scenario("crossover", tiny_network)
    SpyEngine(tiny_network).evaluate_layers(sample_hw, items)
    assert widths == [("gemm", VECTOR_KERNEL_MIN_GROUP + 3)]


# --------------------------------------------------------------------------
# count guards: exact request counts, no timing
# --------------------------------------------------------------------------
def _service_requests(server):
    counters = server.metrics.snapshot()["counters"]
    return {
        name[len("service_requests_total["):-1]: int(count)
        for name, count in counters.items()
        if name.startswith("service_requests_total[")
    }


def test_speculative_batch_is_one_post(tiny_network, sample_hw):
    with PPAServiceServer(MaestroEngine(tiny_network)) as server:
        remote = RemotePPAEngine(
            tiny_network, server.url, area_fn=spatial_area_mm2
        )
        search = RandomMappingSearch(
            tiny_network, sample_hw, remote, seed=7, batch_size=8
        )
        calls = []
        evaluate_layers = remote.evaluate_layers

        def spy(hw, items):
            calls.append(list(items))
            return evaluate_layers(hw, items)

        remote.evaluate_layers = spy
        before = _service_requests(server)
        client_before = remote.metrics.counter_value("remote_requests_total")
        search.run(8)
        after = _service_requests(server)

    # the first step's candidate and drafts of the seven that follow
    assert [len(items) for items in calls] == [8]
    assert len({layer_name for _mapping, layer_name in calls[0]}) >= 2
    assert search.num_speculative_evals == 7
    assert search.num_speculation_misses == 0
    assert remote.metrics.counter_value("remote_requests_total") - client_before == 1
    assert after["/evaluate_layers"] - before["/evaluate_layers"] == 1
    assert after.get("/evaluate_layer", 0) == before.get("/evaluate_layer", 0)


def test_remote_cosearch_request_count_pinned(tiny_network, edge_space):
    """A whole (tiny) remote co-search sends a fixed number of requests."""

    def run_once():
        with PPAServiceServer(MaestroEngine(tiny_network)) as server:
            remote = RemotePPAEngine(
                tiny_network, server.url, area_fn=spatial_area_mm2
            )
            result = Unico(
                edge_space,
                tiny_network,
                remote,
                UnicoConfig(
                    batch_size=4, max_iterations=2, max_budget=24, eval_batch_size=8
                ),
                power_cap_w=100.0,
                seed=11,
            ).optimize()
            return _service_requests(server), result.total_engine_queries

    requests, queries = run_once()
    assert (requests, queries) == run_once()
    assert requests == PINNED_REQUESTS
    assert queries == PINNED_QUERIES


#: ``service_requests_total`` by path, and engine queries, of the co-search
#: above.  A change here means the evaluation path batches differently (one
#: POST per layer group of a draft batch would send 137): say so in the PR.
#: Re-pinned when the search began to buy drafts only as deep as its hit
#: record justifies: a miss is a look-ahead POST instead of a scalar one
#: (was 32 / 76) and 38 fewer queries are bought and thrown away (was 254).
#: Re-pinned again (was 92 / 12) when the serial backend began to advance a
#: round's live trials in lockstep: the four, then two, trials of a round
#: share one POST per tick, a lone candidate rides in it as a one-item
#: group, and a lone replica gets a call's misses uncut.  Same queries.
PINNED_REQUESTS = {"/evaluate_layers": 43}
PINNED_QUERIES = 216
