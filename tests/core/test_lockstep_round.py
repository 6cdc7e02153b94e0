"""Lockstep MSH rounds: the live trials of a round share each engine call.

``Unico._dispatch_round`` advances the trials of a round together
(``repro.core.evaluation.advance_lockstep``): every trial's step
generator runs until it asks for evaluations, the pending
requests leave as one ``PPAEngine.evaluate_groups`` call — through a
replica, one ``POST /evaluate_layers`` — and each trial is sent its
results.  None of that may move a search: every trial proposes from its
own RNG and folds its own results in its own order, so each lands exactly
where ``SWSearchTrial.run`` leaves it, on every engine route.  What does
change is the number of exchanges, and the order in which different
trials' samples reach the journal inside a round.
"""

import inspect

import numpy as np
import pytest

from repro.core.unico import Unico, UnicoConfig
from repro.core.evaluation import SWSearchTrial, advance_lockstep
from repro.core.multiworkload import MultiWorkloadTrial, multi_workload_trial_factory
from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.errors import EvaluationError
from repro.hw.spatial import edge_design_space
from repro.mapping.gemm_mapping import GemmMapping
from repro.obs.trace import InMemorySink, Tracer
from repro.workloads.layers import Gemm
from repro.workloads.network import Network
from repro.workloads.registry import get_network

TOOLS = ["flextensor", "gamma", "random", "oneloop"]
WIDTHS = [1, 8, 64]
ROUTES = ["local", "replica", "shards"]

#: an MSH schedule in miniature: ``(live trial indices, additional budget)``
ROUNDS = [((0, 1, 2, 3, 4), 10), ((0, 2, 4), 14), ((2, 4), 9), ((2,), 20)]


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
    """Factory for a fresh engine (cold client cache) on the given route."""
    opened = []

    def make(route):
        if route == "local":
            return MaestroEngine(tiny_network)
        urls = [server.url for server in replicas[: 1 if route == "replica" else 2]]
        engine = RemotePPAEngine(
            tiny_network, urls, area_fn=spatial_area_mm2, batch_size=3
        )
        opened.append(engine)
        return engine

    yield make
    for engine in opened:
        engine.close()


def _hardware(count):
    space = edge_design_space()
    configs = [space.sample(index) for index in range(count)]
    assert len(set(configs)) == count
    return configs


def _recording_sink(engine):
    """Install a sink on ``engine``; returns ``{hw: [sample, ...]}``."""
    streams = {}

    def sink(hw, samples):
        streams.setdefault(hw, []).extend(
            (layer_name, mapping.key(), result)
            for layer_name, mapping, _shape, result in samples
        )

    engine.sample_sink = sink
    return streams


def _trials(network, engine, tool, width, configs):
    return [
        SWSearchTrial(
            hw, network, engine, tool=tool, seed=100 + index, batch_size=width
        )
        for index, hw in enumerate(configs)
    ]


def _assert_same_trial(got, want):
    assert got.search.history == want.search.history
    assert got.search.best_layer_mapping == want.search.best_layer_mapping
    assert (
        got.search.rng.bit_generator.state == want.search.rng.bit_generator.state
    )
    assert got.search._bought == want.search._bought
    assert got.search.num_speculative_evals == want.search.num_speculative_evals
    assert got.queries_spent == want.queries_spent
    assert got.spent_budget == want.spent_budget


class _WholeTrial(SWSearchTrial):
    """A trial that exposes no ``steps``: a round runs it whole on its turn,
    the branch of ``advance_lockstep`` a ``MultiWorkloadTrial`` takes."""

    steps = None


# ------------------------------------------- (a) lockstep == every trial alone
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("tool", TOOLS)
def test_lockstep_lands_every_trial_where_run_does(
    tool, width, route, make_engine, tiny_network
):
    configs = _hardware(5)
    together_engine, alone_engine = make_engine(route), make_engine(route)
    together_samples = _recording_sink(together_engine)
    alone_samples = _recording_sink(alone_engine)
    together = _trials(tiny_network, together_engine, tool, width, configs)
    alone = _trials(tiny_network, alone_engine, tool, width, configs)

    ticks = 0
    for live, additional in ROUNDS:
        ticks += advance_lockstep(
            [(together[index], additional) for index in live], together_engine
        )
        for index in live:
            alone[index].run(additional)

    assert ticks > 0
    for got, want in zip(together, alone):
        _assert_same_trial(got, want)
    assert together_engine.num_queries == alone_engine.num_queries
    assert together_engine.num_cache_hits == alone_engine.num_cache_hits
    # every trial's samples, in that trial's own order; only how the
    # streams of different trials interleave may differ
    assert together_samples == alone_samples
    assert sum(map(len, together_samples.values())) == (
        together_engine.num_queries - together_engine.num_cache_hits
    )


@pytest.mark.parametrize("route", ["local", "replica"])
@pytest.mark.parametrize("width", [1, 8])
def test_serial_cosearch_matches_one_trial_at_a_time(
    width, route, make_engine, tiny_network
):
    """The whole co-search: lockstep against the same trials made unable to
    step, so that every trial of a round runs alone."""

    def optimize(trial_cls=None):
        config = UnicoConfig(
            batch_size=5, max_iterations=2, max_budget=24, eval_batch_size=width
        )
        engine = make_engine(route)
        factory = trial_cls and (
            lambda hw, seed_rng: trial_cls(
                hw, tiny_network, engine, seed=seed_rng, batch_size=width
            )
        )
        unico = Unico(
            edge_design_space(), tiny_network, engine, config,
            power_cap_w=100.0, seed=11, trial_factory=factory,
        )
        return unico.optimize(), engine

    lockstep, lockstep_engine = optimize()
    alone, alone_engine = optimize(_WholeTrial)
    assert np.array_equal(lockstep.pareto.points, alone.pareto.points)
    assert lockstep.total_time_s == alone.total_time_s
    assert lockstep.total_engine_queries == alone.total_engine_queries
    assert lockstep.total_hw_evaluated == alone.total_hw_evaluated
    assert lockstep_engine.num_cache_hits == alone_engine.num_cache_hits
    if route == "replica":
        posts = [
            engine.metrics.counter_value("remote_requests_total")
            for engine in (lockstep_engine, alone_engine)
        ]
        assert posts[0] < posts[1]


# ------------------------------------------------------------- (b) exchanges
class _CallCountingEngine(MaestroEngine):
    """Counts engine calls — what a search alone sends one by one — and,
    given ``fail_at``, raises instead of answering that call."""

    calls = 0
    fail_at = None

    def _count(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise EvaluationError("engine down")

    def evaluate_groups(self, groups):
        self._count()
        return super().evaluate_groups(groups)


def test_a_round_posts_no_more_than_its_busiest_trial_calls():
    """The 6-HW mobilenetv2 table of ``test_lookahead.py`` through one replica."""
    network = get_network("mobilenetv2")
    configs = _hardware(6)
    rounds = [((0, 1, 2, 3, 4, 5), 100), ((0, 2, 4), 100), ((2,), 200)]

    solo = _CallCountingEngine(network)
    alone = _trials(network, solo, "flextensor", 8, configs)
    seeding_calls = solo.calls
    busiest = []
    for live, additional in rounds:
        per_trial = []
        for index in live:
            before = solo.calls
            alone[index].run(additional)
            per_trial.append(solo.calls - before)
        busiest.append(max(per_trial))
    solo_calls = solo.calls

    with PPAServiceServer(MaestroEngine(network)) as server, RemotePPAEngine(
        network, server.url, area_fn=spatial_area_mm2
    ) as remote:
        together = _trials(network, remote, "flextensor", 8, configs)
        # one POST per seeding call: the 35 seeds are not cut into chunks
        assert (
            remote.metrics.counter_value("remote_requests_total") <= seeding_calls
        )
        ticks = [
            advance_lockstep([(together[index], extra) for index in live], remote)
            for live, extra in rounds
        ]
        posts = remote.metrics.counter_value("remote_requests_total")

    assert ticks == busiest
    assert posts <= sum(busiest) + seeding_calls
    assert posts < 0.6 * solo_calls  # what the trials alone would have sent
    for got, want in zip(together, alone):
        _assert_same_trial(got, want)


# ---------------------------------------------------------------- (c) faults
class _DroppingServer(PPAServiceServer):
    """Hangs up on chosen ``POST /evaluate_layers`` requests, unanswered."""

    def __init__(self, engine, drop):
        super().__init__(engine)
        self.drop = set(drop)
        self.posts = 0

    def _dispatch(self, route, request):
        if request.path == "/evaluate_layers":
            self.posts += 1
            if self.posts in self.drop:
                raise OSError("dropped on purpose")  # the socket just closes
        return super()._dispatch(route, request)


@pytest.mark.parametrize("drop", [(4,), (4, 5)])
def test_dropped_tick_is_retried_and_the_search_is_unchanged(drop, tiny_network):
    """One drop is the pool's stale-socket replay; two in a row reach the
    engine's own retry.  Either way the tick is sent again, whole."""
    configs = _hardware(4)
    local = MaestroEngine(tiny_network)
    alone = _trials(tiny_network, local, "flextensor", 8, configs)
    with _DroppingServer(MaestroEngine(tiny_network), drop) as server:
        remote = RemotePPAEngine(
            tiny_network, server.url, area_fn=spatial_area_mm2,
            backoff_base_s=0.001, backoff_max_s=0.002,
        )
        together = _trials(tiny_network, remote, "flextensor", 8, configs)
        advance_lockstep([(trial, 30) for trial in together], remote)
        retried = (
            remote.stats()["pool"]["num_stale_retries"], remote.num_network_retries
        )
        remote.close()
    for trial in alone:
        trial.run(30)
    assert retried == ((1, 0) if len(drop) == 1 else (1, 1))
    for got, want in zip(together, alone):
        _assert_same_trial(got, want)
    assert remote.num_queries == local.num_queries


def test_rejected_item_keeps_the_groups_and_items_before_it(tiny_network):
    """Group 3 of 5 holds an item the replica rejects: groups 1-2 and the
    item before it are cached and sunk, nothing after it is."""
    # the client knows a layer the server does not: a server-side rejection
    client_network = Network(
        name=tiny_network.name,
        layers=tiny_network.layers + (Gemm(name="ghost", m=8, n=8, k=8),),
        family="test",
        year=2023,
    )
    configs = _hardware(5)
    mappings = [GemmMapping(4, 8, 4), GemmMapping(8, 8, 8), GemmMapping(2, 4, 4)]
    groups = [
        (hw, [(mapping, "gemm") for mapping in mappings]) for hw in configs
    ]
    groups[2] = (configs[2], [(mappings[0], "gemm"), (mappings[1], "ghost"),
                              (mappings[2], "gemm")])
    with PPAServiceServer(MaestroEngine(tiny_network)) as server, RemotePPAEngine(
        client_network, server.url, area_fn=spatial_area_mm2
    ) as remote:
        calls = []
        remote.sample_sink = lambda hw, samples: calls.append(
            (hw, [(mapping, layer_name) for layer_name, mapping, _s, _r in samples])
        )
        with pytest.raises(EvaluationError, match="ghost"):
            remote.evaluate_groups(groups)
        assert remote.metrics.counter_value("remote_requests_total") == 1
        assert calls == [
            (configs[0], groups[0][1]),
            (configs[1], groups[1][1]),
            (configs[2], groups[2][1][:1]),
        ]
        assert remote.num_queries == 15  # every item was asked for
        stored = [
            (remote.hw_key(hw), layer_name, mapping.key())
            for hw, items in calls
            for mapping, layer_name in items
        ]
        assert list(remote._cache) == stored


@pytest.mark.parametrize("width", [1, 8])
def test_raising_tick_closes_the_generators_it_leaves_waiting(
    width, tiny_network, monkeypatch
):
    """Each trial stops where its own raising engine call leaves it today."""
    configs = _hardware(3)
    fail_at_tick = 5
    together_engine = _CallCountingEngine(tiny_network)
    together = _trials(tiny_network, together_engine, "gamma", width, configs)
    together_engine.fail_at = together_engine.calls + fail_at_tick
    generators = []
    steps = SWSearchTrial.steps

    def recording_steps(self, additional_budget):
        generators.append(steps(self, additional_budget))
        return generators[-1]

    monkeypatch.setattr(SWSearchTrial, "steps", recording_steps)
    with pytest.raises(EvaluationError, match="engine down"):
        advance_lockstep([(trial, 40) for trial in together], together_engine)
    assert len(generators) == len(configs)
    assert all(
        inspect.getgeneratorstate(generator) == inspect.GEN_CLOSED
        for generator in generators
    )
    for index, hw in enumerate(configs):
        # alone, the trial's own fifth request of the round is the one that raises
        alone_engine = _CallCountingEngine(tiny_network)
        reference = SWSearchTrial(
            hw, tiny_network, alone_engine, tool="gamma", seed=100 + index,
            batch_size=width,
        )
        alone_engine.fail_at = alone_engine.calls + fail_at_tick
        with pytest.raises(EvaluationError, match="engine down"):
            reference.run(40)
        got = together[index].search
        assert 0 < got.spent_budget == reference.search.spent_budget
        assert got.history == reference.search.history
        assert (
            got.rng.bit_generator.state
            == reference.search.rng.bit_generator.state
        )
        assert got._bought == reference.search._bought


# ----------------------------------------------------------- (d) mixed round
def test_trial_that_cannot_be_stepped_runs_whole_on_its_turn(tiny_network):
    other = Network(
        name="other", layers=(Gemm(name="g1", m=32, n=64, k=48),), family="test"
    )

    def build():
        engine = MaestroEngine(tiny_network)
        _composite, bundle = multi_workload_trial_factory(
            [tiny_network, other], lambda net, clock: MaestroEngine(net, clock=clock)
        )
        configs = _hardware(3)
        stepped = _trials(tiny_network, engine, "flextensor", 8, configs[:2])
        whole = bundle(configs[2], np.random.default_rng(7))
        assert isinstance(whole, MultiWorkloadTrial)
        return engine, [stepped[0], whole, stepped[1]]

    together_engine, together = build()
    _alone_engine, alone = build()
    for additional in (12, 9):
        advance_lockstep([(trial, additional) for trial in together], together_engine)
        for trial in alone:
            trial.run(additional)
    for got, want in zip(together, alone):
        assert got.queries_spent == want.queries_spent
        assert np.array_equal(got.best_curve(), want.best_curve())
        assert got.spent_budget == want.spent_budget == 21
    _assert_same_trial(together[0], alone[0])
    _assert_same_trial(together[2], alone[2])


def test_custom_trial_factory_mixes_both_kinds(tiny_network):
    """Through ``Unico``: lockstep against one trial at a time."""
    other = Network(
        name="other", layers=(Gemm(name="g1", m=32, n=64, k=48),), family="test"
    )

    def optimize(stepped_cls):
        engine = MaestroEngine(tiny_network)
        _composite, bundle = multi_workload_trial_factory(
            [tiny_network, other],
            lambda net, clock: MaestroEngine(net, clock=clock),
            clock=engine.clock,
        )
        made = []

        def factory(hw, seed_rng):
            if len(made) % 2:
                made.append(bundle(hw, seed_rng))
            else:
                made.append(
                    stepped_cls(hw, tiny_network, engine, seed=seed_rng, batch_size=8)
                )
            return made[-1]

        config = UnicoConfig(batch_size=4, max_iterations=2, max_budget=16)
        unico = Unico(
            edge_design_space(), tiny_network, engine, config,
            power_cap_w=100.0, seed=5, trial_factory=factory,
        )
        return unico.optimize(), made

    lockstep, lockstep_trials = optimize(SWSearchTrial)
    alone, alone_trials = optimize(_WholeTrial)
    assert {type(trial) for trial in lockstep_trials} == {
        SWSearchTrial, MultiWorkloadTrial
    }
    assert np.array_equal(lockstep.pareto.points, alone.pareto.points)
    assert lockstep.total_time_s == alone.total_time_s
    assert [trial.queries_spent for trial in lockstep_trials] == [
        trial.queries_spent for trial in alone_trials
    ]


# ------------------------------------------------------------------- tracing
def test_traced_round_is_ticks_and_one_search_span_per_trial(tiny_network):
    sink = InMemorySink()
    engine = MaestroEngine(tiny_network)
    unico = Unico(
        edge_design_space(), tiny_network, engine,
        UnicoConfig(batch_size=5, max_iterations=1, max_budget=24, eval_batch_size=8),
        power_cap_w=100.0, seed=11,
    )
    unico.set_tracer(Tracer(clock=engine.clock, sinks=[sink]))
    unico.optimize()
    spans = sink.spans
    rounds = [span for span in spans if span["name"] == "msh_round"]
    assert [span["attrs"]["active"] for span in rounds] == [5, 2, 1]
    for round_span in rounds:
        children = [
            span for span in spans if span["parent_id"] == round_span["span_id"]
        ]
        searches = [span for span in children if span["name"] == "mapping_search"]
        ticks = [span for span in children if span["name"] == "engine_eval_batch"]
        assert len(searches) == round_span["attrs"]["active"]
        for span in searches:
            assert {"tool", "budget", "spent_budget", "speculative_evals",
                    "unused_drafts"} <= set(span["attrs"])
        if round_span["attrs"]["active"] == 1:
            # nobody to share a call with: the trial ran whole, under its span
            assert "ticks" not in round_span["attrs"] and not ticks
            continue
        assert round_span["attrs"]["ticks"] == len(ticks) > 0
        assert all(span["attrs"]["groups"] >= 1 for span in ticks)
        assert max(span["attrs"]["groups"] for span in ticks) == len(searches)
        # children never overlap, so they fit inside the round
        assert sum(span["wall_dur_s"] for span in children) <= (
            round_span["wall_dur_s"] + 1e-6
        )
        for span in children:
            assert span["wall_start_s"] >= round_span["wall_start_s"] - 1e-6
            assert span["wall_start_s"] + span["wall_dur_s"] <= (
                round_span["wall_start_s"] + round_span["wall_dur_s"] + 1e-6
            )
