"""The one tile loop against the two recurrences it replaced, bit for bit.

:func:`repro.camodel.ascend_sim._finish_times` is the only tile loop of
the Ascend-like simulator: :func:`_pipeline_cycles` extrapolates its
window and :func:`repro.camodel.trace._stage_stats` derives busy and
stall cycles from it.  ``pipeline_oracle`` keeps the simulator's loop and
the trace's instrumented loop as they were; every total, busy, stall and
utilisation must come out as the same float, including zero-cost stages,
one tile, windows past ``MAX_SIMULATED_TILES`` and single-bank buffers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camodel.ascend_sim import (
    MAX_SIMULATED_TILES,
    _layer_plan,
    _pipeline_cycles,
    _TileCosts,
    simulate_layer,
)
from repro.camodel.trace import _stage_stats, trace_layer
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.hw.ascend import ascend_design_space
from repro.mapping.ascend_mapping import AscendMappingSpace
from repro.workloads.layers import GemmShape

from tests.camodel.pipeline_oracle import pipeline_cycles_reference, trace_reference

STAGE_COST = st.one_of(
    st.just(0.0),
    st.floats(0.0, 5000.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 512).map(float),
)
COSTS = st.builds(_TileCosts, *([STAGE_COST] * 6))
N_TILES = st.one_of(
    st.just(1),
    st.integers(1, 64),
    st.integers(MAX_SIMULATED_TILES - 2, MAX_SIMULATED_TILES + 952),
)
TRIPS_K = st.integers(1, 9)
BANKS = st.tuples(*([st.integers(1, 4)] * 5))


def _bits(values):
    return [float(value).hex() for value in values]


def _assert_matches_oracles(costs, n_tiles, trips_k, banks):
    got = _pipeline_cycles(costs, n_tiles, trips_k, banks)
    assert _bits([got]) == _bits([pipeline_cycles_reference(costs, n_tiles, trips_k, banks)])
    total, stages = _stage_stats(costs, n_tiles, trips_k, banks)
    want_total, busy, stalls = trace_reference(costs, n_tiles, trips_k, banks)
    assert _bits([total]) == _bits([want_total])
    assert _bits(stage.busy_cycles for stage in stages) == _bits(busy)
    assert _bits(stage.stall_cycles for stage in stages) == _bits(stalls)
    assert _bits(stage.utilization for stage in stages) == _bits(
        b / want_total if want_total > 0 else 0.0 for b in busy
    )


@given(COSTS, N_TILES, TRIPS_K, BANKS)
@settings(max_examples=150, deadline=None)
def test_the_one_loop_matches_both_oracles(costs, n_tiles, trips_k, banks):
    _assert_matches_oracles(costs, n_tiles, trips_k, banks)


def test_the_edges_the_property_must_reach():
    """All-zero costs, one tile, exactly and just past the window, and
    every bank depth 1: pinned here whatever the draw above reaches."""
    for costs in (_TileCosts(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), _TileCosts(0, 1.5, 0, 7.25, 0, 3)):
        for n_tiles in (1, MAX_SIMULATED_TILES, MAX_SIMULATED_TILES + 1, 3000):
            for trips_k in (1, 3):
                for banks in ((1, 1, 1, 1, 1), (1, 2, 4, 3, 2)):
                    _assert_matches_oracles(costs, n_tiles, trips_k, banks)


def test_simulator_and_trace_run_the_plan_the_oracles_run():
    """Through the layer plan: ``simulate_layer``'s cycles and
    ``trace_layer``'s accounting on sampled configs and mappings."""
    rng = np.random.default_rng(45)
    space = ascend_design_space()
    shapes = (GemmShape(64, 1024, 128), GemmShape(196, 256, 1152, reuse_penalty=0.6))
    checked = 0
    for index in range(60):
        hw = space.sample(rng)
        shape = shapes[index % 2]
        mapping = AscendMappingSpace(shape).sample(rng)
        plan, _reason = _layer_plan(hw, mapping, shape)
        if plan is None:
            continue
        checked += 1
        args = (plan.costs, plan.n_tiles, plan.trips_k, plan.banks)
        cycles = pipeline_cycles_reference(*args)
        assert simulate_layer(hw, mapping, shape).latency_s == cycles / DEFAULT_TECHNOLOGY.frequency_hz
        trace = trace_layer(hw, mapping, shape)
        total, busy, stalls = trace_reference(*args)
        assert trace.total_cycles == total
        assert trace.n_tiles == plan.n_tiles
        assert trace.simulated_tiles == min(plan.n_tiles, MAX_SIMULATED_TILES)
        assert [stage.busy_cycles for stage in trace.stages] == busy
        assert [stage.stall_cycles for stage in trace.stages] == stalls
    assert checked >= 10
