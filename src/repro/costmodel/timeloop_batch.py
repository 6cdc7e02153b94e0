"""Vectorized batch version of the Timeloop-like loop-centric model.

:func:`analyze_gemm_loopnest_batch` is to
:func:`repro.costmodel.timeloop.analyze_gemm_loopnest` what
:func:`repro.costmodel.maestro_batch.analyze_gemm_batch` is to the scalar
MAESTRO-like model: one NumPy structure-of-arrays pass over B candidate
mappings with exact numerical parity (identical feasibility decisions and
reason strings, bit-identical latency/energy).

The scalar model counts tile fills by scanning the loop nest innermost to
outermost (``timeloop._tile_fills``).  Because the DRAM nest is always a
permutation of the three tile loops, the scan has a closed form that
vectorizes without any per-position loop:

* **DRAM nest** — member loops always multiply in, and the single
  non-member loop multiplies in exactly when it is not innermost; so
  ``fills = (product of member trips) * reload_factor`` with the same
  reload factors the data-centric model uses.
* **L1 nest** (DRAM loops + per-PE temporal ``m``/``n`` loops, ``n``
  innermost) — the tail loops make every DRAM loop count, so the fills
  collapse to ``sub_m * n_tiles`` for A and ``sub_m * sub_n * n_tiles``
  for B and C, independent of the loop order.

All products are exact int64; conversions to float happen at the same
operations (and in the same order) as the scalar accumulation, which is
what makes the results bit-identical rather than merely close.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.costmodel.maestro_batch import BatchSoA
from repro.hw.spatial import SpatialHWConfig
from repro.hw.technology import DEFAULT_TECHNOLOGY
from repro.mapping.gemm_mapping import GemmMapping
from repro.ppa import LayerPPA
from repro.workloads.layers import GemmShape

_STARTUP_CYCLES = 1000.0


def analyze_gemm_loopnest_batch(
    hw: SpatialHWConfig,
    mappings: Sequence[GemmMapping],
    shape: GemmShape,
) -> List[LayerPPA]:
    """Batch equivalent of :func:`analyze_gemm_loopnest` (ordered results)."""
    if not mappings:
        return []
    soa = BatchSoA(hw, mappings, shape)
    op_b = DEFAULT_TECHNOLOGY.operand_bytes
    acc_b = DEFAULT_TECHNOLOGY.accum_bytes
    reuse = shape.reuse_penalty
    tm, tn, tk = soa.tm, soa.tn, soa.tk
    n_tiles = soa.n_tiles
    reload_a, reload_b, reload_c = soa.reload_factors()

    # L2 tile footprints (what one fill moves)
    fp_a = tm * tk
    fp_b = tk * tn
    if op_b != 1:  # x * 1 is an integer identity — skip the array ops
        fp_a = fp_a * op_b
        fp_b = fp_b * op_b
    fp_c = soa.tmtn * acc_b

    # ---- DRAM traffic: fills = member-trips product x reload factor ----------
    fills_a = soa.trips_m * soa.trips_k * reload_a
    fills_b = soa.trips_k * soa.trips_n * reload_b
    dram_a = fills_a * fp_a
    dram_b = fills_b * fp_b
    if reuse != 1.0:
        penalty = 1.0 / reuse
        dram_a = dram_a * penalty
        dram_b = dram_b * penalty
    # C crosses DRAM once in operand precision plus partial-sum refetches:
    # extra_fills = max(0, trips_mn * reload_c - trips_mn), and reload >= 1
    extra_fills = soa.trips_mn * (reload_c - 1)
    dram_c = shape.m * shape.n * op_b + 2.0 * extra_fills * fp_c
    dram_bytes = dram_a + dram_b + dram_c

    # ---- NoC traffic ----------------------------------------------------------
    noc_a = n_tiles * fp_a
    if hw.dataflow == "ws":
        # weight-stationary: B's L1 residency follows the DRAM fill
        # pattern, so the scalar ws branch reproduces dram_b exactly
        noc_b = dram_b
        noc_c = n_tiles * fp_c
    else:
        noc_b = n_tiles * fp_b
        if reuse != 1.0:
            noc_b = noc_b * penalty
        # output-stationary C: trips_mn when the reduction is innermost
        # (reload_c == 1 there), else the DRAM fill pattern trips_mn*reload_c
        noc_c = soa.trips_mn * reload_c * fp_c
    if reuse != 1.0:
        noc_a = noc_a * penalty
    noc_bytes = noc_a + noc_b + noc_c

    # ---- L1 traffic: closed-form fills of the extended nest -------------------
    # one A row / one B column of the slice per step
    fp1_ab = tk if op_b == 1 else tk * op_b
    smsn_nt = soa.smsn * n_tiles
    l1_a = soa.sub_m * n_tiles * fp1_ab
    l1_b = smsn_nt * fp1_ab
    l1_c = smsn_nt * acc_b * tk  # one accumulator per (m, n) step, x tk
    # convert each term before adding, like the scalar += accumulation
    # (the exact integers can exceed 2**53, where add-then-convert differs)
    l1_access_bytes = l1_a.astype(np.float64) + l1_b + l1_c

    # ---- latency ---------------------------------------------------------------
    fill_cycles = hw.pe_x + hw.pe_y  # pe_m + pe_n under either spatial choice
    issue_overhead = 0.25 / soa.unroll
    compute_cycles = n_tiles * (
        soa.smsn * tk * (1.0 + issue_overhead) + fill_cycles
    )
    bank_boost = min(hw.l1_banks, 2) / 2.0 + 0.5
    noc_cycles = noc_bytes / (hw.noc_bw * bank_boost)
    dram_cycles = dram_bytes / DEFAULT_TECHNOLOGY.dram_bw_bytes_per_cycle
    latency_s = (
        np.maximum(np.maximum(compute_cycles, noc_cycles), dram_cycles)
        + _STARTUP_CYCLES
    ) / DEFAULT_TECHNOLOGY.frequency_hz

    # ---- energy ----------------------------------------------------------------
    macs = shape.macs
    reg_bytes = 2.0 * macs * op_b
    base_energy = (
        macs * DEFAULT_TECHNOLOGY.mac_energy_j
        + reg_bytes * DEFAULT_TECHNOLOGY.reg_energy_per_byte_j
    )
    energy_j = (
        base_energy
        + (l1_access_bytes + noc_bytes)
        * DEFAULT_TECHNOLOGY.l1_energy_per_byte(hw.l1_bytes)
        + (noc_bytes + dram_bytes)
        * DEFAULT_TECHNOLOGY.l2_energy_per_byte(hw.l2_bytes)
        + dram_bytes * DEFAULT_TECHNOLOGY.dram_energy_per_byte_j
    )
    return soa.build_results(
        hw, latency_s, energy_j, compute_cycles, noc_cycles, dram_cycles,
        dram_bytes,
    )


__all__ = ["analyze_gemm_loopnest_batch"]
