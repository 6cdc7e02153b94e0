"""Cross-cutting invariants of the co-optimization machinery.

Property-style tests over random seeds asserting structural facts every
method must maintain, independent of search quality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines.hasco import HascoBaseline, HascoConfig
from repro.core.baselines.random_codesign import RandomCodesign, RandomCodesignConfig
from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.hw.spatial import edge_design_space
from repro.optim.pareto import pareto_front
from repro.workloads.layers import Gemm
from repro.workloads.network import Network

_NETWORK = Network(
    name="invnet",
    layers=(Gemm(name="g", m=24, n=48, k=36),),
    family="test",
)
_SPACE = edge_design_space()


def _run_unico(seed: int):
    engine = MaestroEngine(_NETWORK)
    unico = Unico(
        _SPACE,
        _NETWORK,
        engine,
        UnicoConfig(batch_size=4, max_iterations=2, max_budget=12),
        power_cap_w=100.0,
        seed=seed,
    )
    return unico.optimize()


class TestParetoInvariants:
    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_archive_equals_batch_front_of_timeline(self, seed):
        """The incremental Pareto archive must equal the batch-computed
        front of all feasible evaluations."""
        result = _run_unico(seed)
        feasible = result.feasible_timeline_points()
        if feasible.size == 0:
            assert len(result.pareto) == 0
            return
        batch = {tuple(p) for p in pareto_front(feasible)}
        archive = {tuple(p) for p in result.pareto.points}
        assert archive == batch

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_timeline_is_time_sorted_and_complete(self, seed):
        result = _run_unico(seed)
        times = [entry.time_s for entry in result.timeline]
        assert times == sorted(times)
        assert len(result.timeline) == result.total_hw_evaluated

    def test_queries_bound_simulated_time(self):
        """Serial time can never be less than the parallel makespan and
        never more than queries x cost + overheads."""
        result = _run_unico(0)
        engine_cost = 5.0  # ANALYTICAL_EVAL_COST_S
        # with workers=1 (default config) time ~= queries x cost + overhead
        expected = result.total_engine_queries * engine_cost
        assert result.total_time_s >= expected  # overheads only add
        assert result.total_time_s <= expected * 1.1 + 100


class TestBudgetAccounting:
    @pytest.mark.parametrize(
        "cls,config",
        [
            (HascoBaseline, HascoConfig(max_candidates=3, full_budget=10)),
            (RandomCodesign, RandomCodesignConfig(max_candidates=3, full_budget=10)),
        ],
    )
    def test_full_budget_methods_query_exactly(self, cls, config):
        engine = MaestroEngine(_NETWORK)
        optimizer = cls(
            _SPACE, _NETWORK, engine, config, power_cap_w=100.0, seed=5
        )
        result = optimizer.optimize()
        # queries = candidates x (init per layer + budget); init = 1 layer here
        per_candidate = 1 + 10
        assert result.total_engine_queries == result.total_hw_evaluated * (
            per_candidate
        )

    def test_unico_budget_never_exceeds_bmax_per_candidate(self):
        engine = MaestroEngine(_NETWORK)
        unico = Unico(
            _SPACE,
            _NETWORK,
            engine,
            UnicoConfig(batch_size=5, max_iterations=1, max_budget=20),
            power_cap_w=100.0,
            seed=3,
        )
        unico.optimize()
        budgets = [e.budget_spent for e in unico.evaluations]
        assert max(budgets) <= 20
        assert all(b >= 1 for b in budgets)
