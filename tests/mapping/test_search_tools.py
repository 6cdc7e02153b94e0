"""Tests for the anytime mapping-search contract and the concrete tools.

The properties UNICO depends on (Section 2.1): searches are resumable, the
best-so-far curve is monotone non-increasing, one budget unit = one engine
query, and guided tools beat random under equal budget.
"""

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.errors import SearchBudgetError
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch

TOOLS = [FlexTensorSearch, GammaSearch, RandomMappingSearch]


@pytest.fixture(params=TOOLS, ids=[t.__name__ for t in TOOLS])
def search(request, tiny_network, sample_hw):
    engine = MaestroEngine(tiny_network)
    return request.param(tiny_network, sample_hw, engine, seed=17)


class TestAnytimeContract:
    def test_initial_incumbents_feasible(self, search):
        for result in search.best_layer_result.values():
            assert result.feasible

    def test_history_length_equals_budget(self, search):
        search.run(25)
        assert len(search.history) == 25
        assert search.spent_budget == 25

    def test_best_curve_monotone(self, search):
        search.run(60)
        curve = search.best_curve()
        assert np.all(np.diff(curve) <= 1e-18)

    def test_resume_extends_history(self, search):
        search.run(10)
        best_after_10 = search.best_objective
        search.run(10)
        assert len(search.history) == 20
        assert search.best_objective <= best_after_10

    def test_zero_budget_noop(self, search):
        search.run(0)
        assert search.spent_budget == 0

    def test_negative_budget_rejected(self, search):
        with pytest.raises(SearchBudgetError):
            search.run(-1)

    def test_one_query_per_budget_unit(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        search = RandomMappingSearch(tiny_network, sample_hw, engine, seed=0)
        init_queries = engine.num_queries
        search.run(15)
        assert engine.num_queries == init_queries + 15

    def test_best_ppa_matches_objective(self, search):
        search.run(30)
        assert search.best_ppa.latency_s == pytest.approx(search.best_objective)

    def test_best_mapping_covers_layers(self, search):
        search.run(5)
        assert set(search.best_mapping) == set(search.layer_names)

    def test_deterministic_given_seed(self, tiny_network, sample_hw):
        def run_once():
            engine = MaestroEngine(tiny_network)
            s = FlexTensorSearch(tiny_network, sample_hw, engine, seed=3)
            s.run(40)
            return s.best_objective

        assert run_once() == run_once()

    def test_trial_points_recorded(self, search):
        search.run(20)
        trials = np.array([point.trial_objective for point in search.history])
        assert trials.shape == (20,)
        # trial objectives are never better than the concurrent best
        bests = search.best_curve()
        finite = np.isfinite(trials)
        assert np.all(trials[finite] >= bests[finite] - 1e-15)


class TestSearchQuality:
    def test_guided_tools_beat_random(self, tiny_network, sample_hw):
        """Under the same budget, FlexTensor/GAMMA should not lose to random
        by more than noise (averaged over seeds)."""
        budget = 120

        def best_of(tool_cls, seed):
            engine = MaestroEngine(tiny_network)
            search = tool_cls(tiny_network, sample_hw, engine, seed=seed)
            search.run(budget)
            return search.best_objective

        seeds = [0, 1, 2]
        random_mean = np.mean([best_of(RandomMappingSearch, s) for s in seeds])
        flex_mean = np.mean([best_of(FlexTensorSearch, s) for s in seeds])
        gamma_mean = np.mean([best_of(GammaSearch, s) for s in seeds])
        assert flex_mean <= random_mean * 1.05
        assert gamma_mean <= random_mean * 1.05

    def test_more_budget_not_worse(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        search = FlexTensorSearch(tiny_network, sample_hw, engine, seed=5)
        search.run(20)
        early = search.best_objective
        search.run(100)
        assert search.best_objective <= early


class TestTinyHardware:
    def test_search_survives_tiny_l1(self, tiny_network, edge_space):
        """Hardware with minimal L1 forces the (1,1,1) fallback seed."""
        hw = edge_space.to_config(
            {
                "pe_x": 2,
                "pe_y": 2,
                "l1_bytes": 64,
                "l2_kb": 8,
                "noc_bw": 64,
                "dataflow": "os",
            }
        )
        engine = MaestroEngine(tiny_network)
        search = FlexTensorSearch(tiny_network, hw, engine, seed=0)
        search.run(10)
        assert np.isfinite(search.best_objective)
