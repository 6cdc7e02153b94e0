"""Look-ahead that pays its way: one step loop, drafts as deep as they pay.

The inner search evaluates a missed candidate together with drafts of the
steps that follow, keeps every result it bought in a pool until a step
proposes it, and drafts only as deep as its own hit record justifies
(``AnytimeMappingSearch._lookahead_depth``).  None of that may move the
search: every width lands on the width-1 trajectory, the engine queries a
search issued are exactly the steps it folded plus what is still in its
pool.  The ratchet at the bottom holds the query and cost-model-call
counts this change recorded.
"""

import numpy as np
import pytest

from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.hw.spatial import edge_design_space
from repro.mapping.cosa import CosaMapper
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch
from repro.workloads.registry import get_network
from tests.mapping.test_golden_history import GOLDEN, run_search, search_digest

SPECULATING = [FlexTensorSearch, GammaSearch, RandomMappingSearch]


# ------------------------------------------------- (i) every width, one search
@pytest.mark.parametrize("batch_size", [2, 8, 64])
@pytest.mark.parametrize(
    "tool,objective", sorted(key for key in GOLDEN if key[0] != "fusion")
)
def test_every_width_lands_on_the_width_one_digest(tool, objective, batch_size):
    """History, incumbents and final RNG state of the golden table's cases."""
    search = run_search(tool, batch_size=batch_size)
    assert search_digest(search) == GOLDEN[(tool, objective)]
    if type(search).supports_speculation:
        assert search.num_speculative_evals > 0


# --------------------------------------------------- (ii) accounting identity
@pytest.mark.parametrize("batch_size", [2, 8, 64])
@pytest.mark.parametrize("tool_cls", SPECULATING)
def test_queries_are_folded_steps_plus_seeding_plus_pool(
    tool_cls, batch_size, tiny_network, sample_hw
):
    engine = MaestroEngine(tiny_network)
    search = tool_cls(
        tiny_network, sample_hw, engine, seed=3, batch_size=batch_size
    )
    seeding = engine.num_queries
    for budget in (1, 2, 7, 33, 1, 20):
        search.run(budget)
        assert engine.num_queries == (
            search.spent_budget + seeding + len(search._bought)
        )
        assert search.num_speculation_misses == len(search._bought)
    # a bought result is used at most once: every draft is a fold or in the pool
    assert search.num_speculative_evals >= len(search._bought)


def test_depth_follows_the_hit_record(tiny_network, sample_hw):
    """``d = clip(floor(ln 1/2 / ln p), 1, batch_size - 1)``, p Laplace-smoothed."""
    search = GammaSearch(
        tiny_network, sample_hw, MaestroEngine(tiny_network), seed=1, batch_size=8
    )
    assert search._lookahead_depth() == 1  # no record yet: p = 1/2
    for used, made, depth in [(1, 1, 1), (2, 2, 2), (3, 3, 3), (9, 9, 7), (6, 10, 1)]:
        search._drafts_used, search._drafts_made = used, made
        assert search._lookahead_depth() == depth
    search.batch_size = 64
    search._drafts_used = search._drafts_made = 9
    assert search._lookahead_depth() == 7  # p = 10/11: 0.909 ** 8 < 1/2
    # a tool whose proposals never read a result always drafts the full width
    exact = RandomMappingSearch(
        tiny_network, sample_hw, MaestroEngine(tiny_network), seed=1, batch_size=64
    )
    assert exact._lookahead_depth() == 63


# ------------------------------------------------- (iii) the recorded ratchet
class _CountingEngine(MaestroEngine):
    """Counts the engine calls that reach the cost model (= HTTP exchanges
    on the remote route): the calls with at least one miss."""

    cost_model_calls = 0

    def _compute_misses(self, hw, misses):
        self.cost_model_calls += 1
        return super()._compute_misses(hw, misses)


#: (queries, cost-model calls) over 6 edge HW samples x 400 steps on
#: mobilenetv2, seeding included, as recorded by the change that introduced
#: the step loop (DESIGN.md section 4b has the table; at its parent:
#: flextensor 4128/1372 and 4388/1366, gamma 2755/415 and 3558/735, random
#: as below).  A ratchet: lower is welcome, higher is a regression.
RECORDED = {
    (FlexTensorSearch, 8): (3137, 1388),
    (FlexTensorSearch, 64): (3137, 1388),
    (GammaSearch, 8): (2699, 399),
    (GammaSearch, 64): (2791, 356),
    (RandomMappingSearch, 8): (2610, 306),
    (RandomMappingSearch, 64): (2610, 48),
}


@pytest.mark.parametrize(
    "tool_cls,batch_size", sorted(RECORDED, key=lambda key: (key[0].name, key[1]))
)
def test_queries_and_cost_model_calls_ratchet(tool_cls, batch_size):
    network = get_network("mobilenetv2")
    space = edge_design_space()
    queries = calls = 0
    for index in range(6):
        engine = _CountingEngine(network)
        tool_cls(
            network, space.sample(index), engine, seed=index, batch_size=batch_size
        ).run(400)
        queries += engine.num_queries
        calls += engine.cost_model_calls
    recorded_queries, recorded_calls = RECORDED[(tool_cls, batch_size)]
    assert queries <= recorded_queries
    assert calls <= recorded_calls
    if tool_cls is FlexTensorSearch:
        assert queries <= 3200  # width 1 pays 2610; the parent paid 4128
    if tool_cls is RandomMappingSearch:
        assert (queries, calls) == (recorded_queries, recorded_calls)


# ------------------------------------- (iv) a co-search at every width, one front
def test_cosearch_width_buys_queries_not_a_different_front(tiny_network, edge_space):
    def optimize(eval_batch_size):
        config = UnicoConfig(
            batch_size=5, max_iterations=2, max_budget=24, workers=2,
            eval_batch_size=eval_batch_size,
        )
        unico = Unico(
            edge_space, tiny_network, MaestroEngine(tiny_network), config,
            power_cap_w=100.0, seed=11,
        )
        return unico.optimize()

    wide, scalar = optimize(8), optimize(1)
    # look-ahead did run: width 1 pays fewer queries for the same front
    assert scalar.total_engine_queries < wide.total_engine_queries
    assert np.array_equal(
        np.sort(scalar.pareto.points, axis=0), np.sort(wide.pareto.points, axis=0)
    )


# ------------------------------------------- (v) who asks one item at a time
def _scalar_reference(tool_cls, network, hw, budget):
    engine = MaestroEngine(network)
    return tool_cls(network, hw, engine, seed=9, batch_size=1).run(budget)


def test_tool_that_cannot_speculate_buys_nothing(tiny_network, sample_hw):
    assert CosaMapper.supports_speculation is False
    engine = MaestroEngine(tiny_network)
    search = CosaMapper(tiny_network, sample_hw, engine, seed=9, batch_size=8)
    search.run(30)
    reference = _scalar_reference(CosaMapper, tiny_network, sample_hw, 30)
    assert (search.num_speculative_evals, search._bought) == (0, {})
    # every call but the incumbent seeding carries one item
    assert engine.num_batch_items - engine.num_batch_queries == (
        len(tiny_network.layers) - 1
    )
    assert engine.num_queries == reference.engine.num_queries
    assert search.history == reference.history


@pytest.mark.parametrize("tool_cls", SPECULATING)
def test_last_step_of_a_run_buys_nothing(tool_cls, tiny_network, sample_hw):
    engine = MaestroEngine(tiny_network)
    search = tool_cls(tiny_network, sample_hw, engine, seed=9, batch_size=8)
    calls, items = engine.num_batch_queries, engine.num_batch_items
    for _ in range(30):
        search.run(1)  # remaining == 1 at every step
    reference = _scalar_reference(tool_cls, tiny_network, sample_hw, 30)
    assert (search.num_speculative_evals, search._bought) == (0, {})
    # every step is a one-item call
    assert engine.num_batch_items - items == engine.num_batch_queries - calls
    assert engine.num_queries == reference.engine.num_queries
    assert search.history == reference.history
