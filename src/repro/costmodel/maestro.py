"""MAESTRO-like analytical PPA model for the spatial accelerator.

Given a hardware configuration, a software mapping and a GEMM-shaped
operator, the model produces latency / energy / area the same way the
data-centric analytical frameworks (MAESTRO, Timeloop) do:

1. **Tiling** — the mapping's L1 tile ``(tm, tn, tk)`` is executed per pass
   on the PE array; ``m`` spreads over one array axis, ``n`` over the other
   (per the mapping's ``spatial`` choice).
2. **Reuse analysis** — DRAM<->L2 traffic uses the classic reload-factor
   rule: operand ``X`` is re-fetched once per iteration of every loop that
   does not index ``X`` and sits *outside* the innermost loop that does.
   L2<->L1 (NoC) traffic depends on the dataflow: weight-stationary keeps
   the B (weight) tile resident across passes, output-stationary keeps the
   accumulator in the PE until the reduction completes.
3. **Roofline latency** — compute, NoC and DRAM cycles overlap via double
   buffering, so tile latency is their maximum.
4. **Energy** — per-MAC, per-byte register/L1/L2/DRAM energies from
   :data:`~repro.hw.technology.DEFAULT_TECHNOLOGY`; SRAM energy
   grows with capacity.
5. **Area** — PEs + banked SRAM + NoC + fixed base.

Capacity feasibility (double-buffered tiles must fit L1 per PE and L2) is
checked first; infeasible mappings return ``feasible=False`` with a reason.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hw.spatial import SpatialHWConfig
from repro.hw.technology import DEFAULT_TECHNOLOGY
from repro.mapping.gemm_mapping import GemmMapping
from repro.ppa import LayerPPA, feasible_ppa, infeasible_ppa
from repro.workloads.layers import GemmShape

_STARTUP_CYCLES = 1000.0


def spatial_area_mm2(hw: SpatialHWConfig) -> float:
    """Silicon area of a spatial-accelerator configuration."""
    sram_area_per_kb = DEFAULT_TECHNOLOGY.sram_area_mm2_per_kb
    bank_overhead = DEFAULT_TECHNOLOGY.bank_area_overhead
    l1_total_kb = hw.l1_total_bytes / 1024.0
    l2_kb = float(hw.l2_kb)
    l1_area = sram_area_per_kb * l1_total_kb * (1.0 + bank_overhead * (hw.l1_banks - 1))
    l2_area = sram_area_per_kb * l2_kb * (1.0 + bank_overhead * (hw.l2_banks - 1))
    pe_area = DEFAULT_TECHNOLOGY.pe_area_mm2 * hw.num_pes
    noc_area = DEFAULT_TECHNOLOGY.noc_area_mm2_per_pe_per_lane * hw.num_pes * hw.noc_bw
    return DEFAULT_TECHNOLOGY.base_area_mm2 + pe_area + l1_area + l2_area + noc_area


#: Constants an engine re-derives for the same hardware or layer shape
#: thousands of times per search, held per object (by ``id``, with the
#: object kept so its ``id`` stays its own).  Bounded like the engine's
#: hardware keys: cleared past this many.
CONSTS_HELD = 256

#: ``id(hw) -> (hw, consts)``; see :func:`_hw_consts`
_HW_CONSTS: Dict[int, Tuple] = {}
#: ``id(shape) -> (shape, consts)``; see :func:`_shape_consts`
_SHAPE_CONSTS: Dict[int, Tuple] = {}


def _hw_consts(hw: SpatialHWConfig) -> Tuple:
    """(pe_x, pe_y, fill, l1 bytes, l2 bytes, weight stationary, NoC
    bytes per cycle, L1 and L2 energy per byte) of ``hw``."""
    held = _HW_CONSTS.get(id(hw))
    if held is not None and held[0] is hw:
        return held[1]
    if len(_HW_CONSTS) >= CONSTS_HELD:
        _HW_CONSTS.clear()
    bank_boost = min(hw.l1_banks, 2) / 2.0 + 0.5  # 1.0 at 1 bank, 1.5 at >=2
    consts = (
        hw.pe_x,
        hw.pe_y,
        hw.pe_x + hw.pe_y,  # systolic fill/drain per pass, either spatial
        hw.l1_bytes,
        hw.l2_bytes,
        hw.dataflow == "ws",
        hw.noc_bw * bank_boost,
        DEFAULT_TECHNOLOGY.l1_energy_per_byte(hw.l1_bytes),
        DEFAULT_TECHNOLOGY.l2_energy_per_byte(hw.l2_bytes),
    )
    _HW_CONSTS[id(hw)] = (hw, consts)
    return consts


def _shape_consts(shape: GemmShape) -> Tuple:
    """The per-shape products of :func:`analyze_gemm`, each formed exactly
    as the per-call expression it replaces (see there)."""
    held = _SHAPE_CONSTS.get(id(shape))
    if held is not None and held[0] is shape:
        return held[1]
    if len(_SHAPE_CONSTS) >= CONSTS_HELD:
        _SHAPE_CONSTS.clear()
    m, n, k = shape.m, shape.n, shape.k
    op_b = DEFAULT_TECHNOLOGY.operand_bytes
    acc_b = DEFAULT_TECHNOLOGY.accum_bytes
    macs = shape.macs
    reg_bytes = 2.0 * macs * op_b
    consts = (
        m,
        n,
        k,
        shape.reuse_penalty,
        op_b,
        acc_b,
        m * k * op_b,  # A bytes
        k * n * op_b,  # B bytes
        m * n * op_b,  # C bytes
        2.0 * m * n * acc_b,  # one partial-sum round trip
        macs * DEFAULT_TECHNOLOGY.mac_energy_j
        + reg_bytes * DEFAULT_TECHNOLOGY.reg_energy_per_byte_j,
        reg_bytes / 4.0,
        DEFAULT_TECHNOLOGY.dram_bw_bytes_per_cycle,
        DEFAULT_TECHNOLOGY.frequency_hz,
        DEFAULT_TECHNOLOGY.dram_energy_per_byte_j,
    )
    _SHAPE_CONSTS[id(shape)] = (shape, consts)
    return consts


def analyze_gemm(
    hw: SpatialHWConfig, mapping: GemmMapping, shape: GemmShape
) -> LayerPPA:
    """Analyze one GEMM pass under ``mapping`` on ``hw``.

    Returns an infeasible :class:`LayerPPA` when the double-buffered tile
    working sets overflow L1 (per PE) or L2.  Everything fixed by the
    hardware or by the shape comes from :func:`_hw_consts` /
    :func:`_shape_consts`; the rest is evaluated in the order the steps
    of the module docstring give, so results are the same bits however
    the constants were reached.
    """
    pe_x, pe_y, fill, l1_bytes, l2_bytes, ws, noc_denom, l1_e, l2_e = _hw_consts(hw)
    (
        m, n, k, reuse, op_b, acc_b, a_bytes, b_bytes, c0, c2,
        base_energy, reg4, dram_bw, frequency, dram_e,
    ) = _shape_consts(shape)
    # (tile_m, tile_n, tile_k, unroll, spatial == "mn", innermost dim code)
    tile_m, tile_n, tile_k, unroll, spatial_mn, inner = mapping._row
    # tiles can never exceed the problem dimensions
    tm = tile_m if tile_m < m else m
    tn = tile_n if tile_n < n else n
    tk = tile_k if tile_k < k else k
    if spatial_mn:
        sub_m = -(-tm // pe_x)
        sub_n = -(-tn // pe_y)
    else:
        sub_m = -(-tm // pe_y)
        sub_n = -(-tn // pe_x)

    # --- capacity feasibility ------------------------------------------------
    l1_need = 2 * (sub_m * tk + tk * sub_n) * op_b + sub_m * sub_n * acc_b
    if l1_need > l1_bytes:
        reason = f"L1 overflow: need {l1_need} B per PE, have {l1_bytes} B"
    else:
        l2_need = 2 * (tm * tk + tk * tn) * op_b + tm * tn * acc_b
        reason = (
            f"L2 overflow: need {l2_need} B, have {l2_bytes} B"
            if l2_need > l2_bytes
            else None
        )
    if reason is not None:
        return infeasible_ppa(reason)

    trips_m = -(-m // tm)
    trips_n = -(-n // tn)
    trips_k = -(-k // tk)
    n_tiles = trips_m * trips_n * trips_k

    # --- DRAM <-> L2 traffic -------------------------------------------------
    # an operand is re-fetched once per trip of the one loop it does not
    # index, unless that loop is innermost (m=0, n=1, k=2)
    reload_b = 1 if inner == 0 else trips_m
    dram_a = a_bytes * (1 if inner == 1 else trips_n) / reuse
    dram_b = b_bytes * reload_b / reuse
    dram_c = c0 + c2 * ((1 if inner == 2 else trips_k) - 1)
    dram_bytes = dram_a + dram_b + dram_c

    # --- L2 <-> L1 (NoC) traffic ---------------------------------------------
    noc_a = n_tiles * tm * tk * op_b / reuse
    if ws:
        # Weight tile resident in L1 across passes that keep it fixed.
        noc_b = dram_b
        noc_c = n_tiles * tm * tn * acc_b
    else:  # output stationary
        noc_b = n_tiles * tk * tn * op_b / reuse
        # Reduction innermost: accumulator completes inside the PE.
        noc_c = c0 if inner == 2 else c0 + c2 * (trips_k - 1)
    noc_bytes = noc_a + noc_b + noc_c

    # --- latency ---------------------------------------------------------------
    compute_cycles = n_tiles * (
        sub_m * sub_n * tk * (1.0 + 0.25 / unroll) + fill
    )
    noc_cycles = noc_bytes / noc_denom
    dram_cycles = dram_bytes / dram_bw
    latency_cycles = compute_cycles
    if noc_cycles > latency_cycles:
        latency_cycles = noc_cycles
    if dram_cycles > latency_cycles:
        latency_cycles = dram_cycles

    # --- energy ----------------------------------------------------------------
    energy_j = (
        base_energy
        + (reg4 + noc_bytes) * l1_e
        + (noc_bytes + dram_bytes) * l2_e
        + dram_bytes * dram_e
    )
    return feasible_ppa(
        (latency_cycles + _STARTUP_CYCLES) / frequency,
        energy_j,
        compute_cycles,
        noc_cycles,
        dram_cycles,
        dram_bytes,
    )
