"""Look-ahead that buys only answers the search will use.

A tool whose proposals never read a result (``proposals_ignore_results``,
the random tool) evaluates a missed candidate together with exact drafts
of the steps that follow; every other tool steps one candidate per engine
call.  Every result bought goes into the search's answer store.  None of
that may move the search or what it pays: every width lands on the
width-1 trajectory with the width-1 answers, no draft is ever left
unused, and the engine queries a search issued are exactly the answers
it stores.  The ratchet holds the query and cost-model-call counts last
recorded.
"""

import numpy as np
import pytest

from repro.camodel.engine import AscendCAEngine
from repro.core.evaluation import SEARCH_TOOLS, make_search_tool
from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.hw.ascend import ascend_design_space
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
    drafted = search.num_speculative_evals > 0
    assert drafted == type(search).proposals_ignore_results


# --------------------------------------------------- (ii) accounting identity
@pytest.mark.parametrize("batch_size", [2, 8, 64])
@pytest.mark.parametrize("tool_cls", SPECULATING)
def test_queries_are_folded_steps_plus_seeding_plus_pool(
    tool_cls, batch_size, tiny_network, sample_hw
):
    """Queries charged = answers stored: the seeding, every folded step and
    every draft bought is one query and one entry of the answer store (the
    identity was steps folded + seeding + unused drafts while a folded step
    was forgotten); unused drafts are what no step has proposed yet."""
    engine = MaestroEngine(tiny_network)
    search = tool_cls(
        tiny_network, sample_hw, engine, seed=3, batch_size=batch_size
    )
    for budget in (1, 2, 7, 33, 1, 20):
        search.run(budget)
        assert engine.num_queries == len(search._bought)
        assert search._unused_drafts.keys() <= search._bought.keys()
        assert search.num_speculation_misses == len(search._unused_drafts)
    # every draft bought is a fold or still unused, never both
    assert search.num_speculative_evals >= search.num_speculation_misses


# ------------------------------------------ (iii) the width buys no query
def _platform(tool, index):
    """mobilenetv2 on the ``index``-th sampled config of the tool's platform."""
    network = get_network("mobilenetv2")
    if tool == "fusion":
        return network, ascend_design_space().sample(index), AscendCAEngine(network)
    return network, edge_design_space().sample(index), MaestroEngine(network)


def _sweep(tool, width):
    """6 HW configs (2 for the slower Ascend-like engine) x 400 steps, in
    two ``run`` rounds, at one width: per search its digest, answers and
    final RNG state, and the engine calls of all of them."""
    outcomes, calls = [], 0
    for index in range(2 if tool == "fusion" else 6):
        network, hw, engine = _platform(tool, index)
        search = make_search_tool(
            tool, network, hw, engine, seed=index, batch_size=width
        )
        for budget in (250, 150):
            search.run(budget)
            assert search.num_speculation_misses == 0
        outcomes.append(
            (
                search_digest(search),
                search.num_answers,
                repr(search.rng.bit_generator.state),
            )
        )
        assert engine.num_queries == search.num_answers
        calls += engine.num_batch_queries
    return outcomes, calls


@pytest.mark.parametrize("tool", sorted([*SEARCH_TOOLS, "oneloop"]))
def test_the_width_buys_no_query(tool):
    """At widths 1, 8 and 64: the same search, the same answers bought, no
    draft left unused, and no more engine calls than width 1 makes."""
    scalar, scalar_calls = _sweep(tool, 1)
    for width in (8, 64):
        wide, calls = _sweep(tool, width)
        assert wide == scalar
        assert calls <= scalar_calls


# ------------------------------------------------- (iv) the recorded ratchet
class _CountingEngine(MaestroEngine):
    """Counts the engine calls that reach the cost model (= HTTP exchanges
    on the remote route): every call with at least one item."""

    cost_model_calls = 0

    def _compute_group(self, hw, items, answers):
        self.cost_model_calls += 1
        super()._compute_group(hw, items, answers)


#: (queries, cost-model calls) over 6 edge HW samples x 400 steps on
#: mobilenetv2, seeding included, as recorded by the change that left
#: drafting to the tools whose proposals ignore results (DESIGN.md section
#: 4b).  FlexTensor and GAMMA now read width 1's numbers at every width:
#: they buy no unused draft, so queries fall, and they step one candidate
#: per engine call, so cost-model calls rise — that is the trade
#: (flextensor 2311/1263 -> 1917/1749 at both widths, gamma 1602/367 and
#: 1675/371 -> 1529/1361).  Before the answer store was keyed by twin
#: key (section 4w), when twin layers paid twice: flextensor 2382/1277 at
#: both widths, gamma 1656/371 and 1730/372, random 2609/306 and 2609/48;
#: and before the answer store, section 4v: flextensor 3137/1388, gamma
#: 2699/399 and 2791/356, random 2610/306 and 2610/48 (flextensor at
#: width 1: 1974 queries before twins shared answers, 2610 before the
#: answer store, 4128 before the step loop).  A ratchet: lower is
#: welcome, higher is a regression.
RECORDED = {
    (FlexTensorSearch, 8): (1917, 1749),
    (FlexTensorSearch, 64): (1917, 1749),
    (GammaSearch, 8): (1529, 1361),
    (GammaSearch, 64): (1529, 1361),
    (RandomMappingSearch, 8): (2573, 306),
    (RandomMappingSearch, 64): (2573, 48),
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
    if tool_cls is RandomMappingSearch:
        assert (queries, calls) == (recorded_queries, recorded_calls)


# -------------------------------------- (v) a co-search at every width, one front
def test_cosearch_width_charges_equal_queries_and_time(tiny_network, edge_space):
    """What a width buys is engine calls, not queries nor a front: widths 1
    and 8 charge the same queries and simulated time for the same front."""
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
    assert scalar.total_engine_queries == wide.total_engine_queries
    assert scalar.total_time_s == wide.total_time_s
    assert np.array_equal(
        np.sort(scalar.pareto.points, axis=0), np.sort(wide.pareto.points, axis=0)
    )


# ------------------------------------------- (vi) who asks one item at a time
def _scalar_reference(tool_cls, network, hw, budget):
    engine = MaestroEngine(network)
    return tool_cls(network, hw, engine, seed=9, batch_size=1).run(budget)


def test_tool_that_cannot_speculate_buys_nothing(tiny_network, sample_hw):
    assert CosaMapper.proposals_ignore_results is False
    engine = MaestroEngine(tiny_network)
    search = CosaMapper(tiny_network, sample_hw, engine, seed=9, batch_size=8)
    search.run(30)
    reference = _scalar_reference(CosaMapper, tiny_network, sample_hw, 30)
    assert (search.num_speculative_evals, search._unused_drafts) == (0, {})
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
    assert (search.num_speculative_evals, search._unused_drafts) == (0, {})
    # every step is a one-item call
    assert engine.num_batch_items - items == engine.num_batch_queries - calls
    assert engine.num_queries == reference.engine.num_queries
    assert search.history == reference.history
