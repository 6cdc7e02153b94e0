"""The kernels' per-hardware constant caches stay bounded.

A long-lived replica or hub sees an unbounded stream of hardware configs
(the cloud space alone has ~1e9); every per-config cache a kernel keeps
must stop at ``CONSTS_HELD`` entries, as the engine's ``hw_key`` memo
does, without changing a result.
"""

import numpy as np

from repro.costmodel import maestro, maestro_batch
from repro.costmodel.maestro import CONSTS_HELD, analyze_gemm
from repro.costmodel.maestro_batch import analyze_gemm_batch
from repro.hw.spatial import SpatialHWConfig
from repro.mapping.gemm_mapping import GemmMapping, GemmMappingSpace
from repro.workloads.layers import GemmShape

from tests.costmodel.maestro_oracle import analyze_gemm_reference


def test_more_configs_than_the_bound_leave_every_cache_bounded():
    rng = np.random.default_rng(7)
    configs = 3 * CONSTS_HELD + 17
    for index in range(configs):
        hw = SpatialHWConfig(
            pe_x=1 + index % 32,
            pe_y=1 + index // 32,
            l1_bytes=4096,
            l2_kb=512,
            noc_bw=64,
            dataflow="ws" if index % 2 else "os",
        )
        # a fresh shape object per config, too: the scalar kernel holds
        # shapes by identity, and a served request decodes new ones
        shape = GemmShape(64 + index % 5, 96, 48, reuse_penalty=0.6)
        space = GemmMappingSpace(shape)
        mappings = [space.sample(rng) for _ in range(3)] + [GemmMapping(8, 8, 8)]
        want = [analyze_gemm_reference(hw, m, shape) for m in mappings]
        assert [analyze_gemm(hw, m, shape) for m in mappings] == want
        assert analyze_gemm_batch(hw, mappings, shape) == want
        for cache in (
            maestro._HW_CONSTS,
            maestro._SHAPE_CONSTS,
            maestro_batch._HW_CONSTS,
        ):
            assert len(cache) <= CONSTS_HELD
    assert len(maestro._HW_CONSTS) > 0 and len(maestro_batch._HW_CONSTS) > 0
