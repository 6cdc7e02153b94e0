"""Cycle-level simulator of the Ascend-like core's tile pipeline.

The DaVinci-style execution of one GEMM-lowered operator is a six-stage
pipeline over (m, n, k) tiles, k innermost so the accumulator completes in
L0C before the vector/writeback stages fire:

    scalar issue -> DMA in (DDR->L1) -> MTE (L1->L0A/L0B)
                 -> cube (m x k x n MACs/cycle) -> vector (L0C->UB)
                 -> DMA out (UB->DDR)

Bank groups on L0A/L0B/L0C determine how deeply consecutive tiles overlap
(double/quadruple buffering); a single bank serializes producer and
consumer.  The simulator runs the exact start/finish recurrence tile by
tile (:func:`_finish_times`, the one tile loop; the pipeline trace reads
its finish times too) — this is what makes it "cycle accurate" and orders
of magnitude slower than the analytical model — and extrapolates the
steady-state rate when an operator has more tiles than
``MAX_SIMULATED_TILES``.

ICache and parameter-buffer sizing surface as scalar-issue overhead: cores
whose instruction/parameter working set overflows those buffers pay a
per-tile stall.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.costmodel.results import LayerPPA, infeasible_ppa
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.hw.ascend import AscendHWConfig
from repro.mapping.ascend_mapping import AscendMapping
from repro.utils.intmath import round_up_div
from repro.workloads.layers import GemmShape

#: L1 -> L0 transfer bandwidth, bytes/cycle
_L1_BW = 128.0
#: vector unit throughput, output elements/cycle
_VECTOR_THROUGHPUT = 64.0
#: base scalar instructions issued per tile
_SCALAR_BASE_CYCLES = 64.0
#: cube MAC area (mm^2 per MAC); per-MAC energy comes from the technology
_CUBE_MAC_AREA_MM2 = 0.002

MAX_SIMULATED_TILES = 2048

_STAGE_NAMES = ("scalar", "dma_in", "mte", "cube", "vector", "dma_out")
#: stages from here on fire only on reduction completion
_WRITEBACK_STAGE = 4


def ascend_area_mm2(hw: AscendHWConfig) -> float:
    """Silicon area of an Ascend-like configuration."""
    sram_kb = float(hw.total_sram_kb)
    bank_overhead = (
        DEFAULT_TECHNOLOGY.bank_area_overhead
        * (hw.l0a_banks + hw.l0b_banks + hw.l0c_banks - 3)
        * (hw.l0a_kb + hw.l0b_kb + hw.l0c_kb)
        / max(sram_kb, 1.0)
    )
    sram_area = DEFAULT_TECHNOLOGY.sram_area_mm2_per_kb * sram_kb * (1.0 + bank_overhead)
    cube_area = _CUBE_MAC_AREA_MM2 * hw.cube_macs_per_cycle
    vector_area = 0.5  # fixed vector/scalar pipeline complex
    return DEFAULT_TECHNOLOGY.base_area_mm2 + sram_area + cube_area + vector_area


class _TileCosts(NamedTuple):
    """Per-tile stage durations in cycles, in stage order."""

    scalar: float
    dma_in: float
    mte: float
    cube: float
    vector: float
    dma_out: float


def _tile_costs(
    hw: AscendHWConfig, mapping: AscendMapping, shape: GemmShape
) -> _TileCosts:
    tm, tn, tk = mapping.tiles()
    op_b = DEFAULT_TECHNOLOGY.operand_bytes
    ddr_bw = DEFAULT_TECHNOLOGY.dram_bw_bytes_per_cycle
    a_bytes = tm * tk * op_b
    b_bytes = tk * tn * op_b
    dma_in = (0.0 if mapping.fuse_input else a_bytes / ddr_bw) + b_bytes / ddr_bw
    mte = (a_bytes + b_bytes) / _L1_BW
    cube = (
        round_up_div(tm, hw.cube_m)
        * round_up_div(tk, hw.cube_k)
        * round_up_div(tn, hw.cube_n)
    )
    # reduce-penalty workloads (depthwise) under-fill the cube reduction axis
    cube = cube / shape.reuse_penalty if shape.reuse_penalty < 1.0 else float(cube)
    vector = tm * tn / _VECTOR_THROUGHPUT
    dma_out = 0.0 if mapping.fuse_output else tm * tn * op_b / ddr_bw
    icache_factor = 1.0 + 0.5 * max(0.0, 1.0 - hw.icache_kb / 32.0)
    pb_factor = 1.0 + 0.3 * max(0.0, 1.0 - hw.pb_kb / 64.0)
    scalar = _SCALAR_BASE_CYCLES * icache_factor * pb_factor
    return _TileCosts(scalar, dma_in, mte, cube, vector, dma_out)


class _LayerPlan(NamedTuple):
    """What the simulator and the trace run for one fitting operator."""

    trips_m: int
    trips_n: int
    trips_k: int
    n_tiles: int
    costs: _TileCosts
    banks: Tuple[int, int, int, int, int]


def _layer_plan(
    hw: AscendHWConfig, mapping: AscendMapping, shape: GemmShape
) -> Tuple[Optional[_LayerPlan], str]:
    """``(plan, "")``, or ``(None, reason)`` when a tile overflows a buffer:
    the tile working sets are checked against every buffer level first."""
    tm, tn, tk = mapping.tiles()
    op_b = DEFAULT_TECHNOLOGY.operand_bytes
    acc_b = DEFAULT_TECHNOLOGY.accum_bytes
    l0a_slot = hw.l0a_kb * 1024 / hw.l0a_banks
    l0b_slot = hw.l0b_kb * 1024 / hw.l0b_banks
    l0c_slot = hw.l0c_kb * 1024 / hw.l0c_banks
    if tm * tk * op_b > l0a_slot:
        return None, f"L0A overflow: tile {tm}x{tk} > {l0a_slot:.0f} B/bank"
    if tk * tn * op_b > l0b_slot:
        return None, f"L0B overflow: tile {tk}x{tn} > {l0b_slot:.0f} B/bank"
    if tm * tn * acc_b > l0c_slot:
        return None, f"L0C overflow: tile {tm}x{tn} acc > {l0c_slot:.0f} B/bank"
    l1_need = 2 * (tm * tk + tk * tn) * op_b
    if mapping.fuse_output:
        l1_need += tm * tn * op_b  # intermediate tile stays resident
    if l1_need > hw.l1_kb * 1024:
        return None, f"L1 overflow: need {l1_need} B, have {hw.l1_kb * 1024} B"
    if 2 * tm * tn * acc_b > hw.ub_kb * 1024:
        return None, f"UB overflow: {2 * tm * tn * acc_b} B > {hw.ub_kb * 1024} B"
    trips_m = round_up_div(shape.m, tm)
    trips_n = round_up_div(shape.n, tn)
    trips_k = round_up_div(shape.k, tk)
    n_tiles = trips_m * trips_n * trips_k
    costs = _tile_costs(hw, mapping, shape)
    banks = (
        1,  # scalar -> dma_in (instruction queue)
        2,  # dma_in -> mte (L1 is double buffered)
        min(hw.l0a_banks, hw.l0b_banks),
        hw.l0c_banks,
        2,  # vector -> dma_out (UB double buffered)
    )
    return _LayerPlan(trips_m, trips_n, trips_k, n_tiles, costs, banks), ""


def _finish_times(
    costs: _TileCosts,
    n_tiles: int,
    trips_k: int,
    banks: Tuple[int, int, int, int, int],
) -> List[List[float]]:
    """The exact pipeline recurrence over tiles with bank-limited overlap:
    ``finish[s][t]`` for each stage ``s`` and each of the first
    ``min(n_tiles, MAX_SIMULATED_TILES)`` tiles ``t``.

    ``banks[s]`` is the buffer depth between stage ``s`` and ``s+1`` (at
    least 1: ``AscendHWConfig`` refuses zero banks); a stage may start
    tile ``t`` only after its consumer freed slot ``t - banks[s]``, a
    finish time already final when it is read.  Vector and DMA-out
    stages fire only on reduction completion (every ``trips_k``-th
    tile).  The simulator's one tile loop.
    """
    num_stages = len(costs)
    simulate = min(n_tiles, MAX_SIMULATED_TILES)
    finish = [[0.0] * simulate for _ in range(num_stages)]
    for t in range(simulate):
        last_k = (t % trips_k) == trips_k - 1
        for s in range(num_stages):
            duration = costs[s]
            if s >= _WRITEBACK_STAGE and not last_k:
                duration = 0.0
            start = finish[s - 1][t] if s > 0 else 0.0
            if t > 0:
                start = max(start, finish[s][t - 1])
            if s + 1 < num_stages:
                depth = banks[s]
                if t - depth >= 0:
                    start = max(start, finish[s + 1][t - depth])
            finish[s][t] = start + duration
    return finish


def _pipeline_cycles(
    costs: _TileCosts,
    n_tiles: int,
    trips_k: int,
    banks: Tuple[int, int, int, int, int],
) -> float:
    """Cycles of ``n_tiles`` tiles: :func:`_finish_times` over the
    simulated window, then the steady-state rate past it."""
    done = _finish_times(costs, n_tiles, trips_k, banks)[-1]
    total = done[-1]
    if n_tiles > len(done):
        # steady-state extrapolation from the back half of the window
        half = len(done) // 2
        rate = (done[-1] - done[half - 1]) / (len(done) - half)
        total += (n_tiles - len(done)) * rate
    return total


def simulate_layer(
    hw: AscendHWConfig, mapping: AscendMapping, shape: GemmShape
) -> LayerPPA:
    """Cycle-level PPA of one GEMM-lowered operator under ``mapping``."""
    plan, reason = _layer_plan(hw, mapping, shape)
    if plan is None:
        return infeasible_ppa(reason)
    trips_m, trips_n, trips_k, n_tiles, costs, banks = plan
    cycles = _pipeline_cycles(costs, n_tiles, trips_k, banks)
    latency_s = cycles / DEFAULT_TECHNOLOGY.frequency_hz

    op_b = DEFAULT_TECHNOLOGY.operand_bytes
    acc_b = DEFAULT_TECHNOLOGY.accum_bytes
    ddr_bytes = (
        (0 if mapping.fuse_input else shape.m * shape.k * trips_n * op_b / shape.reuse_penalty)
        + shape.k * shape.n * trips_m * op_b / shape.reuse_penalty
        + (0 if mapping.fuse_output else shape.m * shape.n * op_b)
    )
    l1_bytes_moved = (shape.m * shape.k * trips_n + shape.k * shape.n * trips_m) * op_b
    l0_bytes_moved = 2.0 * shape.macs * op_b / 8.0  # operand reads, cube-level reuse
    energy_j = (
        shape.macs * DEFAULT_TECHNOLOGY.mac_energy_j
        + l0_bytes_moved * DEFAULT_TECHNOLOGY.reg_energy_per_byte_j
        + l1_bytes_moved * DEFAULT_TECHNOLOGY.l1_energy_per_byte(hw.l1_kb * 1024)
        + shape.m * shape.n * acc_b
        * DEFAULT_TECHNOLOGY.l2_energy_per_byte(hw.l0c_kb * 1024)
        + ddr_bytes * DEFAULT_TECHNOLOGY.dram_energy_per_byte_j
    )
    return LayerPPA(
        latency_s=latency_s,
        energy_j=energy_j,
        feasible=True,
        compute_cycles=float(n_tiles) * costs.cube,
        noc_cycles=float(n_tiles) * costs.mte,
        dram_cycles=float(n_tiles) * costs.dma_in,
        dram_bytes=float(ddr_bytes),
    )
