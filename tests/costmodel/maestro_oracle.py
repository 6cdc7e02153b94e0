"""The scalar MAESTRO-like kernel as it was written before its constants
were hoisted: the bit-exact oracle for :func:`repro.costmodel.maestro.analyze_gemm`.

Every expression is evaluated per call, in the order the model's docstring
describes it.  ``src/`` keeps one scalar kernel; this copy exists only so
the property tests in ``test_maestro_oracle.py`` can hold the fast one to
it, ``==`` and ``repr`` alike.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hw.spatial import SpatialHWConfig
from repro.hw.technology import DEFAULT_TECHNOLOGY, Technology
from repro.mapping.gemm_mapping import GemmMapping
from repro.ppa import LayerPPA
from repro.utils.intmath import round_up_div
from repro.workloads.layers import GemmShape

_STARTUP_CYCLES = 1000.0


def _clipped_tiles(mapping: GemmMapping, shape: GemmShape) -> Tuple[int, int, int]:
    return (
        min(mapping.tile_m, shape.m),
        min(mapping.tile_n, shape.n),
        min(mapping.tile_k, shape.k),
    )


def _reload_factor(
    operand_dims: Tuple[str, ...],
    loop_order: Tuple[str, str, str],
    trips: Dict[str, int],
) -> int:
    innermost_pos = max(loop_order.index(dim) for dim in operand_dims)
    factor = 1
    for position, dim in enumerate(loop_order):
        if dim not in operand_dims and position < innermost_pos:
            factor *= trips[dim]
    return factor


def analyze_gemm_reference(
    hw: SpatialHWConfig,
    mapping: GemmMapping,
    shape: GemmShape,
    tech: Technology = DEFAULT_TECHNOLOGY,
) -> LayerPPA:
    tm, tn, tk = _clipped_tiles(mapping, shape)
    op_b = tech.operand_bytes
    acc_b = tech.accum_bytes

    if mapping.spatial == "mn":
        pe_m, pe_n = hw.pe_x, hw.pe_y
    else:
        pe_m, pe_n = hw.pe_y, hw.pe_x
    sub_m = round_up_div(tm, pe_m)
    sub_n = round_up_div(tn, pe_n)

    l1_need = 2 * (sub_m * tk + tk * sub_n) * op_b + sub_m * sub_n * acc_b
    if l1_need > hw.l1_bytes:
        return LayerPPA(
            latency_s=float("inf"),
            energy_j=float("inf"),
            feasible=False,
            infeasible_reason=(
                f"L1 overflow: need {l1_need} B per PE, have {hw.l1_bytes} B"
            ),
        )
    l2_need = 2 * (tm * tk + tk * tn) * op_b + tm * tn * acc_b
    if l2_need > hw.l2_bytes:
        return LayerPPA(
            latency_s=float("inf"),
            energy_j=float("inf"),
            feasible=False,
            infeasible_reason=(
                f"L2 overflow: need {l2_need} B, have {hw.l2_bytes} B"
            ),
        )

    trips = {
        "m": round_up_div(shape.m, tm),
        "n": round_up_div(shape.n, tn),
        "k": round_up_div(shape.k, tk),
    }
    n_tiles = trips["m"] * trips["n"] * trips["k"]
    order = tuple(mapping.loop_order)
    reuse = shape.reuse_penalty

    reload_a = _reload_factor(("m", "k"), order, trips)
    reload_b = _reload_factor(("k", "n"), order, trips)
    reload_c = _reload_factor(("m", "n"), order, trips)
    dram_a = shape.m * shape.k * op_b * reload_a / reuse
    dram_b = shape.k * shape.n * op_b * reload_b / reuse
    dram_c = shape.m * shape.n * op_b + 2.0 * shape.m * shape.n * acc_b * (
        reload_c - 1
    )
    dram_bytes = dram_a + dram_b + dram_c

    noc_a = n_tiles * tm * tk * op_b / reuse
    if hw.dataflow == "ws":
        noc_b = shape.k * shape.n * op_b * reload_b / reuse
        noc_c = n_tiles * tm * tn * acc_b
    else:
        noc_b = n_tiles * tk * tn * op_b / reuse
        if order[2] == "k":
            noc_c = shape.m * shape.n * op_b
        else:
            noc_c = shape.m * shape.n * op_b + 2.0 * shape.m * shape.n * acc_b * (
                trips["k"] - 1
            )
    noc_bytes = noc_a + noc_b + noc_c

    fill = pe_m + pe_n
    issue_overhead = 0.25 / mapping.unroll
    compute_cycles = n_tiles * (sub_m * sub_n * tk * (1.0 + issue_overhead) + fill)
    bank_boost = min(hw.l1_banks, 2) / 2.0 + 0.5
    noc_cycles = noc_bytes / (hw.noc_bw * bank_boost)
    dram_cycles = dram_bytes / tech.dram_bw_bytes_per_cycle
    latency_cycles = max(compute_cycles, noc_cycles, dram_cycles) + _STARTUP_CYCLES
    latency_s = latency_cycles / tech.frequency_hz

    macs = shape.macs
    reg_bytes = 2.0 * macs * op_b
    l1_access_bytes = reg_bytes / 4.0 + noc_bytes
    l2_access_bytes = noc_bytes + dram_bytes
    energy_j = (
        macs * tech.mac_energy_j
        + reg_bytes * tech.reg_energy_per_byte_j
        + l1_access_bytes * tech.l1_energy_per_byte(hw.l1_bytes)
        + l2_access_bytes * tech.l2_energy_per_byte(hw.l2_bytes)
        + dram_bytes * tech.dram_energy_per_byte_j
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
