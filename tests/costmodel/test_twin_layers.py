"""Twin layers get one answer.

Distinct layers of a network may lower to one GEMM shape; the first
layer of each shape names its *twin key* (``Network.twin_keys``).  A
search's answer store, the engine's LRU and the shard routing key all key
an answer by it, which is sound only while every in-process kernel reads
``(hw, mapping, GemmShape)`` and never the layer's name.  This holds that
premise for every registered network with twins and every in-process
engine: engines with nothing cached, asked the same hardware and mappings
for two twins, return bit-identical results on the scalar kernel and on
the vector one.
"""

import pytest

from repro.camodel.engine import NOISE_FRACTION, AscendCAEngine
from repro.costmodel.engine import VECTOR_KERNEL_MIN_GROUP, MaestroEngine
from repro.costmodel.timeloop import TimeloopEngine
from repro.hw.ascend import default_ascend_config
from repro.hw.spatial import edge_design_space
from repro.mapping.ascend_mapping import AscendMappingSpace
from repro.mapping.gemm_mapping import shared_space
from repro.workloads.registry import available_networks, get_network


def _twin_groups(network):
    """Layer names per twin key, for the keys more than one layer shares."""
    groups = {}
    for name, twin in network.twin_keys.items():
        groups.setdefault(twin, []).append(name)
    return [names for names in groups.values() if len(names) > 1]


NETWORKS_WITH_TWINS = [
    name for name in available_networks() if _twin_groups(get_network(name))
]

#: engine factory, hardware, mapping-space factory
ENGINES = {
    "maestro": (MaestroEngine, edge_design_space().sample(0), shared_space),
    "timeloop": (TimeloopEngine, edge_design_space().sample(1), shared_space),
    "ascend": (
        lambda network: AscendCAEngine(network, noise_fraction=NOISE_FRACTION),
        default_ascend_config(),
        AscendMappingSpace,
    ),
}


def test_twin_keys_name_the_first_layer_of_each_shape():
    network = get_network("mobilenetv2")
    twins = network.twin_keys
    assert list(twins) == [layer.name for layer in network.layers]
    first = {}
    for layer in network.layers:
        assert twins[layer.name] == first.setdefault(layer.to_gemm(), layer.name)
    assert (len(twins), len(set(twins.values()))) == (35, 29)
    assert network.twin_keys is twins  # computed once per network
    assert "mobilenetv2" in NETWORKS_WITH_TWINS


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("network_name", NETWORKS_WITH_TWINS)
def test_twins_get_bit_identical_answers(network_name, engine_name):
    make_engine, hw, make_space = ENGINES[engine_name]
    network = get_network(network_name)
    for names in _twin_groups(network):
        shape = network.layer(names[0]).to_gemm()
        space = make_space(shape)
        # one group wide enough for the vector kernel, then two scalar calls
        mappings = [space.sample(seed) for seed in range(VECTOR_KERNEL_MIN_GROUP)]
        answers = []
        for name in names:
            batch = make_engine(network).evaluate_layers(
                hw, [(mapping, name) for mapping in mappings]
            )
            scalar = [
                make_engine(network).evaluate_layer(hw, mapping, name)
                for mapping in mappings[:2]
            ]
            answers.append([repr(result) for result in batch + scalar])
        assert all(answer == answers[0] for answer in answers), names
