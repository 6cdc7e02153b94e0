"""OneLoopMappingSearch: registration, honesty, with/without a model."""

import numpy as np
import pytest

from repro.core.evaluation import SEARCH_TOOLS, SWSearchTrial, make_search_tool
from repro.costmodel.engine import MaestroEngine
from repro.learned.model import LearnedCostModel
from repro.learned.oneloop import OneLoopMappingSearch
from repro.learned.screen import ScreeningPPAEngine
from repro.learned.features import featurize_batch
from repro.mapping.gemm_mapping import GemmMappingSpace


def _train_model(engine, hw, seed=0):
    layer_name = next(iter(engine.layer_shapes))
    shape, _count = engine.layer_shapes[layer_name]
    space = GemmMappingSpace(shape)
    rng = np.random.default_rng(seed)
    mappings = [space.sample(rng) for _ in range(48)]
    results = [engine.evaluate_layer(hw, m, layer_name) for m in mappings]
    feasible = np.array([r.feasible for r in results])
    if feasible.sum() < 8:
        pytest.skip("sampled batch too infeasible for this hw")
    return LearnedCostModel.fit(
        featurize_batch(hw, mappings, shape),
        np.array([r.latency_s for r in results]),
        np.array([r.energy_j for r in results]),
        feasible,
        seed=0,
        hidden=16,
        ensemble=2,
        epochs=80,
    )


class TestRegistration:
    def test_registered_as_search_tool(self):
        assert SEARCH_TOOLS["oneloop"] is OneLoopMappingSearch
        assert OneLoopMappingSearch.supports_speculation is False

    def test_make_search_tool_builds_it(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        search = make_search_tool(
            "oneloop", tiny_network, sample_hw, engine, seed=0
        )
        assert isinstance(search, OneLoopMappingSearch)
        assert search.model is None  # plain engine exposes no model


class TestWithoutModel:
    def test_degrades_to_mutation_search(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        trial = SWSearchTrial(
            sample_hw, tiny_network, engine, tool="oneloop", seed=3
        )
        trial.run(24)
        assert trial.search.num_fallback_proposals > 0
        assert trial.search.num_gradient_proposals == 0
        assert trial.best_ppa.latency_s < float("inf")

    def test_improves_over_budget(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        trial = SWSearchTrial(
            sample_hw, tiny_network, engine, tool="oneloop", seed=3
        )
        trial.run(30)
        curve = trial.best_curve()
        assert len(curve)
        assert curve[-1] <= curve[0]


class TestWithModel:
    def test_gradient_proposals_dominate(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        model = _train_model(engine, sample_hw)
        search = OneLoopMappingSearch(
            tiny_network, sample_hw, engine,
            model=model, seed=5, explore_prob=0.0,
        )
        search.run(24)
        assert search.num_gradient_proposals > 0
        assert search.best_ppa.latency_s < float("inf")
        # the incumbent curve is monotone: every adopted point was folded
        # through the analytical engine, never taken from the model
        curve = search.best_curve()
        assert np.all(np.diff(curve) <= 1e-12)

    def test_picks_model_from_screening_engine(self, tiny_network, sample_hw):
        inner = MaestroEngine(tiny_network)
        model = _train_model(inner, sample_hw)
        wrapped = ScreeningPPAEngine(inner, model=model)
        search = OneLoopMappingSearch(
            tiny_network, sample_hw, wrapped, seed=5, explore_prob=0.0
        )
        assert search.model is model

    def test_deterministic_under_seed(self, tiny_network, sample_hw):
        model = _train_model(MaestroEngine(tiny_network), sample_hw)

        def run_once():
            search = OneLoopMappingSearch(
                tiny_network, sample_hw, MaestroEngine(tiny_network),
                model=model, seed=11,
            )
            search.run(20)
            return search.best_ppa.latency_s

        assert run_once() == run_once()

    def test_proposals_avoid_visited_duplicates(self, tiny_network, sample_hw):
        model = _train_model(MaestroEngine(tiny_network), sample_hw)
        search = OneLoopMappingSearch(
            tiny_network, sample_hw, MaestroEngine(tiny_network),
            model=model, seed=7, explore_prob=0.0, jitter=0.0,
        )
        # jitter=0 restarts descend from the same basin every time; the
        # visited-set must still keep proposals from collapsing onto one key
        proposals = [search._propose() for _ in range(6)]
        keys = {(layer, m.key()) for layer, m in proposals}
        assert len(keys) > 1
