"""Mapping spaces are shared per layer shape, and sharing them is safe.

A :class:`GemmMappingSpace` depends on its shape alone and no search
writes to one, so ``AnytimeMappingSearch._make_space`` hands every
search — every trial, on every hardware config — the shape's one space
from a cache bounded at ``SPACES_HELD``.  The Ascend-like fusion search
keeps building its own :class:`AscendMappingSpace` per search.
"""

import pytest

from repro.camodel.engine import AscendCAEngine
from repro.core.unico import Unico, UnicoConfig
from repro.core.evaluation import SWSearchTrial
from repro.costmodel.engine import MaestroEngine
from repro.hw.ascend import default_ascend_config
from repro.hw.spatial import edge_design_space
from repro.mapping.ascend_mapping import AscendMappingSpace
from repro.mapping.fusion import DepthFirstFusionSearch
from repro.mapping.gemm_mapping import SPACES_HELD, GemmMappingSpace, shared_space
from repro.workloads.registry import get_network
from repro.workloads.layers import GemmShape


@pytest.fixture(autouse=True)
def empty_cache():
    """Each test starts from an empty cache, so no earlier test's shapes
    push it over its bound midway."""
    shared_space.cache_clear()
    yield
    shared_space.cache_clear()


def _choices(space):
    return (
        space.shape,
        space.tile_m_choices,
        space.tile_n_choices,
        space.tile_k_choices,
    )


def test_trials_on_different_hardware_share_one_space_per_shape(tiny_network):
    engine = MaestroEngine(tiny_network)
    space = edge_design_space()
    first = SWSearchTrial(space.sample(0), tiny_network, engine, seed=1)
    second = SWSearchTrial(space.sample(1), tiny_network, engine, seed=2)
    assert first.hw != second.hw
    for layer in tiny_network.layers:
        shared = first.search.spaces[layer.name]
        assert second.search.spaces[layer.name] is shared
        assert shared_space(layer.to_gemm()) is shared


def test_choice_tuples_survive_a_full_cosearch(tiny_network):
    trials = []
    engine = MaestroEngine(tiny_network)

    def factory(hw, seed_rng):
        trials.append(SWSearchTrial(hw, tiny_network, engine, seed=seed_rng))
        return trials[-1]

    spaces = {
        layer.name: shared_space(layer.to_gemm()) for layer in tiny_network.layers
    }
    before = {name: _choices(space) for name, space in spaces.items()}
    Unico(
        edge_design_space(),
        tiny_network,
        engine,
        UnicoConfig(batch_size=4, max_iterations=2, max_budget=24),
        power_cap_w=100.0,
        seed=3,
        trial_factory=factory,
    ).optimize()
    assert len({id(trial.hw) for trial in trials}) > 1
    for trial in trials:
        for name, space in spaces.items():
            assert trial.search.spaces[name] is space
    for layer in tiny_network.layers:
        space = spaces[layer.name]
        assert _choices(space) == before[layer.name]
        assert _choices(space) == _choices(GemmMappingSpace(layer.to_gemm()))


def test_cache_stays_within_its_bound():
    shapes = [
        GemmShape(m=8 + i, n=16, k=4 * (1 + i % 7)) for i in range(SPACES_HELD + 60)
    ]
    assert len(set(shapes)) == len(shapes)
    for shape in shapes:
        space = shared_space(shape)
        assert shared_space(shape) is space
        assert _choices(space) == _choices(GemmMappingSpace(shape))
        assert shared_space.cache_info().currsize <= SPACES_HELD
    assert shared_space.cache_info().currsize == SPACES_HELD


def test_fusion_search_builds_its_own_spaces():
    network = get_network("fsrcnn_120x320")
    engine = AscendCAEngine(network)
    first = DepthFirstFusionSearch(network, default_ascend_config(), engine, seed=1)
    second = DepthFirstFusionSearch(network, default_ascend_config(), engine, seed=2)
    name = network.layers[0].name
    assert isinstance(first.spaces[name], AscendMappingSpace)
    assert first.spaces[name] is not second.spaces[name]
    assert shared_space.cache_info().currsize == 0
