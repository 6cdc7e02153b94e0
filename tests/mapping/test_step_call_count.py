"""One search step costs the same at any network depth (a count, not a time).

Counts Python + C call events under ``sys.setprofile`` — the quantity the
end-to-end benchmark reports as ``core.py_calls``; it repeats exactly, so
the guard is stable where a timing would not be.  When every proposal
rebuilt the layer-pick distribution and every fold re-summed the network,
a step on the 70-layer network cost 30 (``batch_size`` 1) to 62
(``batch_size`` 8) more calls than on the 35-layer one; now the difference
is the 2-3 calls by which the two trajectories' cache hits differ.
"""

import sys

import pytest

from repro.costmodel import MaestroEngine
from repro.hw import edge_design_space
from repro.mapping.flextensor import FlexTensorSearch
from repro.workloads import Gemm, Network

STEPS = 400
MAX_EXTRA_CALLS_PER_STEP = 10


def _network(num_layers: int) -> Network:
    return Network(
        name=f"deep{num_layers}",
        layers=tuple(
            Gemm(
                name=f"g{i}",
                m=32 + 16 * (i % 5),
                n=64 + 32 * (i % 3),
                k=48 + 24 * (i % 4),
            )
            for i in range(num_layers)
        ),
        family="test",
    )


def _calls_per_step(num_layers: int, batch_size: int) -> float:
    network = _network(num_layers)
    search = FlexTensorSearch(
        network,
        edge_design_space().sample(0),
        MaestroEngine(network),
        seed=1,
        batch_size=batch_size,
    )
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        search.run(STEPS)  # seeding the incumbents is O(depth) and not counted
    finally:
        sys.setprofile(previous)
    return calls / STEPS


@pytest.mark.parametrize("batch_size", [1, 8])
def test_step_call_count_does_not_grow_with_depth(batch_size):
    shallow = _calls_per_step(35, batch_size)
    deep = _calls_per_step(70, batch_size)
    assert deep <= shallow + MAX_EXTRA_CALLS_PER_STEP
