"""What the search loop caches between steps never goes stale.

The base class keeps the incumbent network totals and the layer-pick
weights across steps and refreshes them only where an incumbent (or, for
FlexTensor, a credit) changes.  Every incumbent write goes through
``_set_incumbent`` — including the fusion search's, which adopts
mappings outside ``_fold_result``.
"""

import dataclasses

import pytest

from repro.camodel.engine import AscendCAEngine
from repro.costmodel.engine import MaestroEngine
from repro.hw.ascend import default_ascend_config
from repro.learned.oneloop import OneLoopMappingSearch
from repro.mapping.fusion import DepthFirstFusionSearch
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gamma import GammaSearch
from repro.mapping.random_search import RandomMappingSearch
from repro.workloads.registry import get_network

GEMM_TOOLS = [
    FlexTensorSearch,
    GammaSearch,
    RandomMappingSearch,
    OneLoopMappingSearch,
]


def _assert_caches_coherent(search):
    assert search._network_totals() == search._sum_incumbents()
    for index, layer_name in enumerate(search.layer_names):
        if layer_name not in search._stale_weights:
            assert search._pick_weights[index] == search._layer_weight(layer_name)


@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("tool_cls", GEMM_TOOLS)
def test_caches_match_recomputation_after_every_step(
    tool_cls, batch_size, tiny_network, sample_hw
):
    search = tool_cls(
        tiny_network,
        sample_hw,
        MaestroEngine(tiny_network),
        seed=5,
        batch_size=batch_size,
    )
    _assert_caches_coherent(search)
    for _ in range(300 // batch_size):
        search.run(batch_size)
        _assert_caches_coherent(search)
    assert len({point.best_objective for point in search.history}) > 1


def test_fusion_search_invalidates_on_adopt():
    """Its incumbent writes happen in ``_adopt``, outside ``_fold_result``."""
    network = get_network("fsrcnn_120x320")
    search = DepthFirstFusionSearch(
        network, default_ascend_config(), AscendCAEngine(network), seed=9
    )
    for _ in range(300):
        search.run(1)
        _assert_caches_coherent(search)
    assert len({point.best_objective for point in search.history}) > 1
    # in a fold the producer's own improvement already dropped the totals;
    # an adoption on its own (a tie, a vetoed fusion's revert) must as well
    name = search.layer_names[1]
    incumbent = search.best_layer_result[name]
    slower = dataclasses.replace(incumbent, latency_s=2 * incumbent.latency_s)
    search._adopt(name, search.best_layer_mapping[name], slower)
    _assert_caches_coherent(search)
