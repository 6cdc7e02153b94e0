"""Timeloop-like loop-centric analytical PPA model.

The paper treats MAESTRO and Timeloop as interchangeable analytical PPA
engines ("This component can be an analytical model such as MAESTRO or
TimeLoop").  Where the MAESTRO-like model in :mod:`repro.costmodel.maestro`
reasons *data-centrically* (reuse rules per operand), this engine reasons
*loop-centrically*, the way Timeloop does:

1. materialize the full tiled loop nest — DRAM-level tile loops in the
   mapping's order, the L2-level tile, the spatial (PE array) unroll and
   the per-PE temporal loops;
2. for every operand and every memory level, count **fills** as the number
   of distinct iterations of the loops *above* that level that change the
   operand's tile (a loop changes an operand's tile iff it iterates one of
   the operand's dimensions), with the innermost-run of unchanged tiles
   coalesced;
3. derive per-level traffic = fills x tile footprint, turn traffic into
   cycles per level bandwidth and energy per level access cost, and take
   the roofline maximum as latency.

Because the two engines share only the technology constants and the
capacity-feasibility rules, agreement between them is a meaningful
cross-validation of both (see ``tests/costmodel/test_timeloop.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.costmodel.engine import PPAEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.results import LayerPPA, infeasible_ppa
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.hw.spatial import SpatialHWConfig
from repro.utils.intmath import round_up_div
from repro.workloads.layers import GemmShape

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapping.gemm_mapping import GemmMapping

_STARTUP_CYCLES = 1000.0

#: operand -> the GEMM dimensions that index it
_OPERAND_DIMS: Dict[str, Tuple[str, ...]] = {
    "A": ("m", "k"),
    "B": ("k", "n"),
    "C": ("m", "n"),
}


@dataclass(frozen=True)
class _Loop:
    """One loop of the nest: a dimension and its trip count."""

    dim: str
    trips: int


def _tile_fills(loops_above: List[_Loop], operand_dims: Tuple[str, ...]) -> int:
    """Number of times the operand's tile is (re)filled under ``loops_above``.

    Walking from the innermost loop outward, consecutive iterations of
    loops that do NOT index the operand keep its tile resident — until the
    first *outer* loop that does index it forces a refill on its next
    iteration.  The closed form: the product of trips of all loops that
    index the operand, times the product of trips of non-indexing loops
    that sit *outside* the outermost indexing loop's inner run — which for
    a perfectly nested tiling reduces to: product of trips of indexing
    loops x product of trips of non-indexing loops that are OUTSIDE at
    least one indexing loop.
    """
    fills = 1
    seen_indexing_below = False
    for loop in reversed(loops_above):  # innermost -> outermost
        if loop.dim in operand_dims:
            fills *= loop.trips
            seen_indexing_below = True
        elif seen_indexing_below:
            fills *= loop.trips
    return fills


def analyze_gemm_loopnest(
    hw: SpatialHWConfig,
    mapping: "GemmMapping",
    shape: GemmShape,
) -> LayerPPA:
    """Loop-centric analysis of one GEMM pass (see module docstring)."""
    tm = min(mapping.tile_m, shape.m)
    tn = min(mapping.tile_n, shape.n)
    tk = min(mapping.tile_k, shape.k)
    op_b = DEFAULT_TECHNOLOGY.operand_bytes
    acc_b = DEFAULT_TECHNOLOGY.accum_bytes

    if mapping.spatial == "mn":
        pe_m, pe_n = hw.pe_x, hw.pe_y
    else:
        pe_m, pe_n = hw.pe_y, hw.pe_x
    sub_m = round_up_div(tm, pe_m)
    sub_n = round_up_div(tn, pe_n)

    # capacity feasibility (identical rules to the data-centric model: the
    # buffers are the same silicon either way)
    l1_need = 2 * (sub_m * tk + tk * sub_n) * op_b + sub_m * sub_n * acc_b
    if l1_need > hw.l1_bytes:
        reason = f"L1 overflow: need {l1_need} B per PE, have {hw.l1_bytes} B"
        return infeasible_ppa(reason)
    l2_need = 2 * (tm * tk + tk * tn) * op_b + tm * tn * acc_b
    if l2_need > hw.l2_bytes:
        return infeasible_ppa(f"L2 overflow: need {l2_need} B, have {hw.l2_bytes} B")

    # ---- the loop nest -------------------------------------------------------
    # DRAM-level tile loops, outer -> inner, in the mapping's order:
    trips = {
        "m": round_up_div(shape.m, tm),
        "n": round_up_div(shape.n, tn),
        "k": round_up_div(shape.k, tk),
    }
    dram_loops = [_Loop(dim, trips[dim]) for dim in mapping.loop_order]
    n_tiles = trips["m"] * trips["n"] * trips["k"]

    # L2 tile footprints (what one fill moves):
    footprint_l2 = {
        "A": tm * tk * op_b,
        "B": tk * tn * op_b,
        "C": tm * tn * acc_b,
    }
    # per-PE (L1) temporal loops inside a tile — k innermost:
    l1_loops = dram_loops + [
        _Loop("m", sub_m),
        _Loop("n", sub_n),
    ]
    footprint_l1 = {
        "A": tk * op_b,  # one row of the A slice per (m) step
        "B": tk * op_b,  # one column of the B slice per (n) step
        "C": acc_b,  # one accumulator per (m, n) step
    }

    # ---- traffic counting ------------------------------------------------------
    reuse = shape.reuse_penalty
    dram_bytes = 0.0
    for operand, dims in _OPERAND_DIMS.items():
        fills = _tile_fills(dram_loops, dims)
        penalty = 1.0 if operand == "C" else 1.0 / reuse
        volume = fills * footprint_l2[operand] * penalty
        if operand == "C":
            # partial sums cross DRAM only when refetched; the final result
            # is written once in operand precision
            extra_fills = max(0, fills - trips["m"] * trips["n"])
            volume = (
                shape.m * shape.n * op_b + 2.0 * extra_fills * footprint_l2["C"]
            )
        dram_bytes += volume

    noc_bytes = 0.0
    for operand, dims in _OPERAND_DIMS.items():
        if operand == "B" and hw.dataflow == "ws":
            # weight-stationary: the B tile's L1 residency follows the DRAM
            # fill pattern (held across passes that do not change it)
            fills = _tile_fills(dram_loops, dims)
        elif operand == "C" and hw.dataflow == "os":
            fills = trips["m"] * trips["n"]
            if mapping.loop_order[2] != "k":
                fills = _tile_fills(dram_loops, dims)
        else:
            fills = n_tiles
        penalty = 1.0 if operand == "C" else 1.0 / reuse
        noc_bytes += fills * footprint_l2[operand] * penalty

    l1_access_bytes = 0.0
    for operand, dims in _OPERAND_DIMS.items():
        fills = _tile_fills(l1_loops, dims)
        l1_access_bytes += fills * footprint_l1[operand] * tk if operand == "C" else (
            fills * footprint_l1[operand]
        )

    # ---- latency ---------------------------------------------------------------
    fill_cycles = pe_m + pe_n
    issue_overhead = 0.25 / mapping.unroll
    compute_cycles = n_tiles * (
        sub_m * sub_n * tk * (1.0 + issue_overhead) + fill_cycles
    )
    bank_boost = min(hw.l1_banks, 2) / 2.0 + 0.5
    noc_cycles = noc_bytes / (hw.noc_bw * bank_boost)
    dram_cycles = dram_bytes / DEFAULT_TECHNOLOGY.dram_bw_bytes_per_cycle
    latency_cycles = max(compute_cycles, noc_cycles, dram_cycles) + _STARTUP_CYCLES
    latency_s = latency_cycles / DEFAULT_TECHNOLOGY.frequency_hz

    # ---- energy ----------------------------------------------------------------
    macs = shape.macs
    reg_bytes = 2.0 * macs * op_b
    energy_j = (
        macs * DEFAULT_TECHNOLOGY.mac_energy_j
        + reg_bytes * DEFAULT_TECHNOLOGY.reg_energy_per_byte_j
        + (l1_access_bytes + noc_bytes)
        * DEFAULT_TECHNOLOGY.l1_energy_per_byte(hw.l1_bytes)
        + (noc_bytes + dram_bytes)
        * DEFAULT_TECHNOLOGY.l2_energy_per_byte(hw.l2_bytes)
        + dram_bytes * DEFAULT_TECHNOLOGY.dram_energy_per_byte_j
    )
    return LayerPPA(
        latency_s=latency_s,
        energy_j=energy_j,
        feasible=True,
        compute_cycles=compute_cycles,
        noc_cycles=noc_cycles,
        dram_cycles=dram_cycles,
        dram_bytes=dram_bytes,
    )


class TimeloopEngine(PPAEngine):
    """Loop-centric analytical engine (drop-in alternative to Maestro)."""

    def _compute_layer(
        self, hw: SpatialHWConfig, mapping: "GemmMapping", shape: GemmShape
    ) -> LayerPPA:
        return analyze_gemm_loopnest(hw, mapping, shape)

    def _compute_layer_batch(
        self, hw: SpatialHWConfig, mappings, layer_name: str, shape: GemmShape
    ) -> List[LayerPPA]:
        from repro.costmodel.timeloop_batch import analyze_gemm_loopnest_batch

        return analyze_gemm_loopnest_batch(hw, mappings, shape)

    def area_mm2(self, hw: SpatialHWConfig) -> float:
        return spatial_area_mm2(hw)
