"""``evaluate_layers`` is the one batched core: parity on every route.

A cross-layer batch must be indistinguishable — results, every count in
``stats()``, simulated clock, and the flattened ``sample_sink`` stream —
from the same items sent one by one through ``evaluate_layer``, whether
the items are computed in process or travel through the one remote
engine to one replica or two.  Every item is a query and a sample, a
repeat included: no engine keeps a cache.  What may differ is what the
single call buys: one sink call carrying all of its items, and (the
count guards at the bottom) one POST per look-ahead call.
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
    """Factory for a fresh engine of the given kind."""
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
        # five distinct keys and a repeat of the first: 6 samples
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
    # one sink call per engine call: the batch's items arrive together, in
    # item order; flattened, the streams agree, one sample per query
    batched_log = [sample for call in batched_calls for sample in call]
    assert batched_log == [sample for call in sequential_calls for sample in call]
    assert len(batched_log) == batched.num_queries
    assert all(len(call) == 1 for call in sequential_calls)
    assert [len(call) for call in batched_calls] == [1] * len(warm) + [len(items)]
    # every count agrees
    stats, reference = batched.stats(), sequential.stats()
    assert {k: v for k, v in stats.items() if k not in _BATCH_SHAPED} == {
        k: v for k, v in reference.items() if k not in _BATCH_SHAPED
    }
    # the warm-up's one-item calls are groups too
    assert (stats["batch_queries"], stats["batch_items"]) == (
        len(warm) + 1, len(warm) + len(items)
    )
    assert stats["cache_hit_rate"] == 0.0
    if scenario == "duplicates":
        # the repeat is computed again, to the same bits
        assert len(batched_log) == 6
        assert got[-1] == got[0]
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
#: Re-pinned again (was 216 queries; the 43 POSTs stay) when each search
#: began to keep every answer it was given: a step proposing a mapping its
#: search was answered before is folded from the search's store, with no
#: query.  Re-pinned again (was 43 POSTs / 181 queries) when only a tool
#: whose proposals ignore results kept drafting: FlexTensor no longer buys
#: the 38 drafts no step used, and each of its misses is a one-item call,
#: so a round makes more ticks — the co-search now pays exactly what it
#: pays at ``eval_batch_size=1``, POSTs included.
PINNED_REQUESTS = {"/evaluate_layers": 52}
PINNED_QUERIES = 143
