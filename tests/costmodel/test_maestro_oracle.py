"""The scalar MAESTRO-like kernel against its pre-hoisting self, bit for bit.

``maestro_oracle.analyze_gemm_reference`` evaluates every expression per
call; :func:`repro.costmodel.maestro.analyze_gemm` takes what the hardware
and the shape fix from per-object caches and must still return the same
result — ``==`` and ``repr`` — for every (hw, mapping, shape, tech):
feasible or over L1 or over L2, either dataflow and spatial choice, every
loop order and unroll factor, unit and fractional reuse penalties, and
tiles that clip at the problem size.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.maestro import analyze_gemm
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.hw.spatial import DATAFLOWS, SpatialHWConfig
from repro.mapping.gemm_mapping import (
    LOOP_ORDERS,
    SPATIAL_CHOICES,
    UNROLL_CHOICES,
    GemmMapping,
)
from repro.workloads.layers import GemmShape

from tests.costmodel.maestro_oracle import analyze_gemm_reference

#: a second process: wider operands, other energies, another clock
WIDE_TECH = dataclasses.replace(
    DEFAULT_TECHNOLOGY,
    operand_bytes=2,
    accum_bytes=8,
    frequency_hz=0.7e9,
    dram_bw_bytes_per_cycle=24.0,
    l1_energy_per_byte_base_j=0.08e-12,
)
TECHS = (DEFAULT_TECHNOLOGY, WIDE_TECH)


def _assert_same(hw, mapping, shape, tech):
    got = analyze_gemm(hw, mapping, shape, tech)
    want = analyze_gemm_reference(hw, mapping, shape, tech)
    assert got == want, (hw, mapping, shape, tech)
    assert repr(got) == repr(want)
    return want


HW = st.builds(
    SpatialHWConfig,
    pe_x=st.integers(1, 32),
    pe_y=st.integers(1, 32),
    l1_bytes=st.integers(16, 1 << 16),
    l2_kb=st.integers(1, 2048),
    noc_bw=st.integers(1, 512),
    dataflow=st.sampled_from(DATAFLOWS),
    l1_banks=st.integers(1, 4),
    l2_banks=st.integers(1, 4),
)
SHAPE = st.builds(
    GemmShape,
    m=st.integers(1, 4096),
    n=st.integers(1, 4096),
    k=st.integers(1, 4096),
    reuse_penalty=st.sampled_from([1.0, 0.6, 0.25, 1 / 3]),
)
MAPPING = st.builds(
    GemmMapping,
    tile_m=st.integers(1, 8192),
    tile_n=st.integers(1, 8192),
    tile_k=st.integers(1, 8192),
    loop_order=st.sampled_from(LOOP_ORDERS),
    spatial=st.sampled_from(SPATIAL_CHOICES),
    unroll=st.sampled_from(UNROLL_CHOICES),
)


@given(HW, MAPPING, SHAPE, st.sampled_from(TECHS))
@settings(max_examples=500, deadline=None)
def test_kernel_matches_oracle(hw, mapping, shape, tech):
    _assert_same(hw, mapping, shape, tech)


def test_cached_constants_follow_the_technology():
    """One hw and one shape object under two technologies: the per-object
    constants must not leak from one to the other."""
    hw = SpatialHWConfig(8, 8, 4096, 256, 64, "os", l1_banks=1)
    shape = GemmShape(96, 160, 224, reuse_penalty=0.6)
    mapping = GemmMapping(32, 32, 16, loop_order=("k", "n", "m"), unroll=2)
    for tech in TECHS + TECHS:
        assert _assert_same(hw, mapping, shape, tech).feasible


def test_seeded_sweep_covers_every_branch():
    """20 000 random triples, with the outcomes and branches they reach
    counted, so the property above is known to have had something to hold."""
    rng = np.random.default_rng(20261015)
    seen = {"feasible": 0, "L1": 0, "L2": 0}
    dataflows, orders, unrolls, spatials = set(), set(), set(), set()
    fractional_reuse = 0
    for _ in range(20_000):
        hw = SpatialHWConfig(
            pe_x=int(rng.choice([1, 2, 4, 8, 12, 16, 32])),
            pe_y=int(rng.choice([1, 2, 4, 8, 12, 16, 32])),
            l1_bytes=int(rng.choice([64, 512, 2048, 6144, 16384])),
            l2_kb=int(rng.choice([8, 32, 128, 512, 1024])),
            noc_bw=int(rng.choice([16, 32, 64, 128, 256])),
            dataflow=str(rng.choice(DATAFLOWS)),
            l1_banks=int(rng.integers(1, 5)),
            l2_banks=int(rng.integers(1, 5)),
        )
        shape = GemmShape(
            m=int(rng.integers(1, 1024)),
            n=int(rng.integers(1, 1024)),
            k=int(rng.integers(1, 1024)),
            reuse_penalty=float(rng.choice([1.0, 0.6])),
        )
        # log-uniform tiles up to twice each dimension: small ones fit,
        # large ones overflow L1 or L2, some clip at the problem size
        tile_m, tile_n, tile_k = (
            int(2 ** rng.uniform(0, np.log2(2 * dim))) for dim in (shape.m, shape.n, shape.k)
        )
        mapping = GemmMapping(
            tile_m=tile_m,
            tile_n=tile_n,
            tile_k=tile_k,
            loop_order=LOOP_ORDERS[int(rng.integers(0, len(LOOP_ORDERS)))],
            spatial=SPATIAL_CHOICES[int(rng.integers(0, len(SPATIAL_CHOICES)))],
            unroll=int(rng.choice(UNROLL_CHOICES)),
        )
        tech = TECHS[int(rng.integers(0, 2))]
        result = _assert_same(hw, mapping, shape, tech)
        outcome = "feasible" if result.feasible else result.infeasible_reason[:2]
        seen[outcome] += 1
        if result.feasible:
            dataflows.add(hw.dataflow)
            orders.add(mapping.loop_order)
            unrolls.add(mapping.unroll)
            spatials.add(mapping.spatial)
            fractional_reuse += shape.reuse_penalty < 1.0
    assert min(seen.values()) > 1000, seen
    assert dataflows == set(DATAFLOWS)
    assert orders == set(LOOP_ORDERS)
    assert unrolls == set(UNROLL_CHOICES)
    assert spatials == set(SPATIAL_CHOICES)
    assert fractional_reuse > 1000
