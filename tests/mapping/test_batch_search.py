"""Look-ahead must not change search trajectories.

``batch_size > 1`` lets a step that has to go to the engine anyway carry
drafts of the steps that follow; every step still *proposes* under the
true post-fold state and only uses a drafted result when it proposes the
same candidate — so the history, the monotone best-so-far curve, the
incumbents and the final RNG state are byte-identical to the scalar loop,
for every tool (speculation-safe ones reuse what they bought; the rest
step through scalar engine calls).
"""

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.errors import SearchBudgetError
from repro.mapping.cosa import CosaMapper
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch

ALL_TOOLS = [FlexTensorSearch, RandomMappingSearch, GammaSearch, CosaMapper]


def _run(tool_cls, network, hw, batch_size, budgets=(40, 23), seed=7):
    engine = MaestroEngine(network)
    search = tool_cls(
        network, hw, engine, seed=seed, batch_size=batch_size
    )
    for budget in budgets:  # uneven rounds cross batch boundaries
        search.run(budget)
    return search


@pytest.mark.parametrize("tool_cls", ALL_TOOLS)
def test_batched_history_identical_to_scalar(tool_cls, tiny_network, sample_hw):
    scalar = _run(tool_cls, tiny_network, sample_hw, batch_size=1)
    batched = _run(tool_cls, tiny_network, sample_hw, batch_size=8)
    assert len(scalar.history) == len(batched.history) == 63
    for a, b in zip(scalar.history, batched.history):
        assert a == b  # every field of every MappingSearchPoint
    assert scalar.best_layer_mapping == batched.best_layer_mapping
    assert scalar.rng.bit_generator.state == batched.rng.bit_generator.state


def test_random_search_speculation_never_misses(tiny_network, sample_hw):
    """Pure-RNG proposals: every draft bought is used, at the full width."""
    batched = _run(RandomMappingSearch, tiny_network, sample_hw, batch_size=8)
    # 40 + 23 steps in engine calls of <= 8: 5 + 3 calls, whose first item
    # is the step's own candidate and not a draft
    assert batched.num_speculative_evals == 63 - 8
    assert batched.num_speculation_misses == 0
    # and therefore the engine charged exactly the scalar query count
    scalar = _run(RandomMappingSearch, tiny_network, sample_hw, batch_size=1)
    assert batched.engine.num_queries == scalar.engine.num_queries


def test_stateful_tools_fall_back_honestly(tiny_network, sample_hw):
    """Fold-dependent proposals may mispredict; waste is counted, not hidden."""
    batched = _run(FlexTensorSearch, tiny_network, sample_hw, batch_size=8)
    scalar = _run(FlexTensorSearch, tiny_network, sample_hw, batch_size=1)
    assert batched.num_speculative_evals > 0
    # Metropolis folds consume RNG, so some drafts are never proposed: they
    # stay in the pool, and are exactly what the search paid beyond width 1
    assert batched.num_speculation_misses > 0
    assert batched.num_speculation_misses == (
        batched.engine.num_queries - scalar.engine.num_queries
    )
    # ... which its own hit record keeps below one wasted draft per two steps
    assert batched.num_speculation_misses < len(batched.history) / 2


def test_non_speculative_tool_skips_batching(tiny_network, sample_hw):
    """CoSA pops a queue in _propose; it must never enter the batch path."""
    assert CosaMapper.supports_speculation is False
    batched = _run(CosaMapper, tiny_network, sample_hw, batch_size=8)
    assert batched.num_speculative_evals == 0
    # every call but the incumbent seeding carries one item
    engine = batched.engine
    assert engine.num_batch_items - engine.num_batch_queries == (
        len(tiny_network.layers) - 1
    )


def test_batch_size_one_uses_scalar_path(tiny_network, sample_hw):
    search = _run(RandomMappingSearch, tiny_network, sample_hw, batch_size=1)
    assert search.num_speculative_evals == 0
    # every call but the incumbent seeding carries one item
    engine = search.engine
    assert engine.num_batch_items - engine.num_batch_queries == (
        len(tiny_network.layers) - 1
    )


def test_invalid_batch_size_rejected(tiny_network, sample_hw, tiny_engine):
    with pytest.raises(SearchBudgetError):
        RandomMappingSearch(tiny_network, sample_hw, tiny_engine, batch_size=0)
