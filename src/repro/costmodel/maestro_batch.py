"""Vectorized batch version of the MAESTRO-like analytical model.

:func:`analyze_gemm_batch` evaluates B candidate mappings for one
``(hw, shape)`` pair in a single NumPy structure-of-arrays pass instead of
B Python calls to :func:`repro.costmodel.maestro.analyze_gemm`.  The inner
mapping-search loop issues hundreds of thousands of such queries per
co-search, so this is the hot path the ROADMAP's "fast as the hardware
allows" goal targets.

The contract is **exact parity** with the scalar model:

* feasibility decisions and ``infeasible_reason`` strings are identical
  (integer arithmetic, L1 checked before L2);
* latency/energy match the scalar floating-point results bit-for-bit,
  because every expression keeps integer subexpressions exact (int64)
  until the same float operation that converts them in the scalar code,
  and float constants are folded with the scalar code's associativity;
* the returned list is ordered like the input ``mappings``.

Vectorization notes.  Up to the widths the benchmarks drive (B = 64)
NumPy's per-call dispatch overhead — not element throughput — is the cost
that matters, so the kernel is written to minimize the *number* and the
*per-op cost* of array operations.  A call costs ~55 us at any such width
against ~3 us per feasible candidate for the scalar model, and a FlexTensor
co-search sends engine calls of two or three candidates, so the engine
only comes here at ``VECTOR_KERNEL_MIN_GROUP`` or more misses of one layer
(:mod:`repro.costmodel.engine`):

* per-candidate attributes come from ``GemmMapping._row`` (precomputed at
  mapping construction) and land in one ``(B, 6)`` int64 table via
  ``np.fromiter`` over the flattened rows, which skips the
  nested-sequence protocol of ``np.array(list-of-tuples)``;
* ``loop_order`` is a permutation of ``(m, n, k)``, so each operand's
  classic reload factor depends only on the *innermost* loop: one
  ``(B, 3)`` select of "1 where that dim is innermost, else its trip
  count" yields all three factors as column views (operand X's factor is
  the column of the dimension X excludes) — no per-operand scan;
* Python scalars bound into array ops go through NumPy 2's weak-promotion
  path, which costs nearly as much as the 64-element op itself; constants
  are therefore pre-wrapped as 0-d/1-d arrays, held as module constants
  or cached per PE-array geometry where they are call-invariant;
* scalar-only subexpressions (``fill = pe_x + pe_y`` under either spatial
  choice, the energy base term, DRAM/NoC byte constants) are computed once
  in Python floats.
"""

from __future__ import annotations

from itertools import chain, starmap
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.costmodel.maestro import CONSTS_HELD
from repro.hw.spatial import SpatialHWConfig
from repro.hw.technology import DEFAULT_TECHNOLOGY
from repro.mapping.gemm_mapping import GemmMapping
from repro.ppa import LayerPPA, feasible_ppa, infeasible_ppa
from repro.workloads.layers import GemmShape

#: 0-d arrays: NumPy 2 binds an array-op Python scalar through the weak
#: promotion path on every call, which costs almost as much again as the
#: 64-element op itself; pre-wrapped 0-d operands skip it.
_STARTUP_CYCLES = np.array(1000.0)
_ONE = np.array(1, dtype=np.int64)
_ONE_F = np.array(1.0)
_QUARTER = np.array(0.25)

#: GEMM dimension codes m=0, n=1, k=2 (see ``gemm_mapping.DIM_INDEX``)
_ALL_CODES = np.array([0, 1, 2], dtype=np.int64)

#: operand bytes (a Python int: ``x * 1`` is skipped where it is one)
_OP_B = DEFAULT_TECHNOLOGY.operand_bytes
#: the technology's 0-d constants
_TWO_OP = np.array(2 * _OP_B, dtype=np.int64)
_ACC_B = np.array(DEFAULT_TECHNOLOGY.accum_bytes, dtype=np.int64)
_DRAM_BW = np.array(DEFAULT_TECHNOLOGY.dram_bw_bytes_per_cycle)
_FREQUENCY = np.array(DEFAULT_TECHNOLOGY.frequency_hz)
_DRAM_ENERGY = np.array(DEFAULT_TECHNOLOGY.dram_energy_per_byte_j)

#: per-(pe_x, pe_y) operand arrays: spatial "mn" -> (pe_x, pe_y),
#: "nm" -> (pe_y, pe_x)
_PE_CONSTS: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

#: per-shape constants (the key is a frozen dataclass):
#: (dims, dims - 1, A/B DRAM byte constants, c0, c2, c0 - c2,
#:  base energy, register bytes / 4)
_SHAPE_CONSTS: Dict[GemmShape, Tuple] = {}

#: per-hw 0-d constants: (fill cycles, NoC denominator,
#: L1 energy/byte, L2 energy/byte).  The energy-per-byte methods scale
#: with capacity**0.25 — worth caching, the search loop re-queries one
#: hw config thousands of times.  Cleared past ``CONSTS_HELD`` entries:
#: a long-lived replica sees an unbounded stream of configs.
_HW_CONSTS: Dict[SpatialHWConfig, Tuple[np.ndarray, ...]] = {}


def _pe_consts(px: int, py: int) -> Tuple[np.ndarray, np.ndarray]:
    consts = _PE_CONSTS.get((px, py))
    if consts is None:
        consts = _PE_CONSTS[(px, py)] = (
            np.array((px, py), dtype=np.int64),
            np.array((py, px), dtype=np.int64),
        )
    return consts


def _hw_consts(hw: SpatialHWConfig) -> Tuple[np.ndarray, ...]:
    consts = _HW_CONSTS.get(hw)
    if consts is None:
        if len(_HW_CONSTS) >= CONSTS_HELD:
            _HW_CONSTS.clear()
        bank_boost = min(hw.l1_banks, 2) / 2.0 + 0.5
        consts = _HW_CONSTS[hw] = (
            np.array(float(hw.pe_x + hw.pe_y)),
            np.array(hw.noc_bw * bank_boost),
            np.array(DEFAULT_TECHNOLOGY.l1_energy_per_byte(hw.l1_bytes)),
            np.array(DEFAULT_TECHNOLOGY.l2_energy_per_byte(hw.l2_bytes)),
        )
    return consts


def _shape_consts(shape: GemmShape) -> Tuple:
    consts = _SHAPE_CONSTS.get(shape)
    if consts is None:
        c0 = shape.m * shape.n * _OP_B
        c2 = 2.0 * shape.m * shape.n * DEFAULT_TECHNOLOGY.accum_bytes
        macs = shape.macs
        reg_bytes = 2.0 * macs * _OP_B
        dims = np.array((shape.m, shape.n, shape.k), dtype=np.int64)
        consts = _SHAPE_CONSTS[shape] = (
            dims,
            dims - _ONE,
            np.array(shape.m * shape.k * _OP_B, dtype=np.int64),
            np.array(shape.k * shape.n * _OP_B, dtype=np.int64),
            c0,
            c2,
            c0 - c2,
            np.array(
                macs * DEFAULT_TECHNOLOGY.mac_energy_j
                + reg_bytes * DEFAULT_TECHNOLOGY.reg_energy_per_byte_j
            ),
            np.array(reg_bytes / 4.0),
        )
    return consts


class BatchSoA:
    """Structure-of-arrays view of B candidate mappings on one (hw, shape).

    Holds everything the scalar models derive before their traffic
    analysis: clipped tiles, PE-array sub-tiles, capacity needs, DRAM-level
    trip counts and the per-candidate innermost-loop code.  Shared by the
    MAESTRO-like and the Timeloop-like batch kernels.  ``l1_bad`` and
    ``l2_bad`` are the raw capacity comparisons; the scalar models'
    L1-before-L2 reason precedence is applied in :meth:`build_results`.
    Requires a non-empty ``mappings`` sequence of :class:`GemmMapping`.
    """

    __slots__ = (
        "size", "tm", "tn", "tk", "unroll", "inner_code", "sub_m", "sub_n",
        "smsn", "tmtn", "l1_need", "l2_need", "l1_bad", "l2_bad",
        "trips", "trips_m", "trips_n", "trips_k", "trips_mn", "n_tiles",
    )

    def __init__(
        self,
        hw: SpatialHWConfig,
        mappings: Sequence[GemmMapping],
        shape: GemmShape,
    ):
        self.size = size = len(mappings)
        # rows precomputed at GemmMapping construction:
        # (tile_m, tile_n, tile_k, unroll, spatial == "mn", innermost code)
        columns = np.fromiter(
            chain.from_iterable([m._row for m in mappings]),
            np.int64,
            count=size * 6,
        ).reshape(size, 6)
        # tiles can never exceed the problem dimensions
        dims, dims1 = _shape_consts(shape)[:2]
        clipped = np.minimum(columns[:, 0:3], dims)
        self.tm = tm = clipped[:, 0]
        self.tn = tn = clipped[:, 1]
        self.tk = tk = clipped[:, 2]
        self.unroll = columns[:, 3]
        self.inner_code = columns[:, 5]

        # (pe_m, pe_n) under each candidate's spatial choice.  The ceil
        # divisions run per dimension: 1-D ops on B elements dispatch
        # ~4x cheaper than the equivalent (B, 2) broadcast ops.
        pe_mn, pe_nm = _pe_consts(hw.pe_x, hw.pe_y)
        pe = np.where(columns[:, 4:5], pe_mn, pe_nm)
        pe_m = pe[:, 0]
        pe_n = pe[:, 1]
        self.sub_m = sub_m = (tm + (pe_m - _ONE)) // pe_m
        self.sub_n = sub_n = (tn + (pe_n - _ONE)) // pe_n

        self.smsn = smsn = sub_m * sub_n
        self.tmtn = tmtn = tm * tn
        self.l1_need = tk * (sub_m + sub_n) * _TWO_OP + smsn * _ACC_B
        self.l2_need = tk * (tm + tn) * _TWO_OP + tmtn * _ACC_B
        self.l1_bad = self.l1_need > hw.l1_bytes
        self.l2_bad = self.l2_need > hw.l2_bytes

        self.trips = trips = (clipped + dims1) // clipped
        self.trips_m = trips[:, 0]
        self.trips_n = trips[:, 1]
        self.trips_k = trips[:, 2]
        self.trips_mn = trips_mn = self.trips_m * self.trips_n
        self.n_tiles = trips_mn * self.trips_k

    def reload_matrix(self) -> np.ndarray:
        """(B, 3) per-dimension select: 1 where that dimension's loop is
        innermost, else its DRAM-level trip count.

        As in ``maestro.analyze_gemm``: with ``loop_order`` a permutation
        of (m, n, k), a two-dimension operand excludes exactly one loop;
        its reload factor is that loop's trip count unless the excluded
        loop is innermost, where it is 1.  Operand X's factor is therefore
        the column of the dimension X excludes: A(m,k) -> column n,
        B(k,n) -> column m, C(m,n) -> column k.
        """
        return np.where(
            self.inner_code[:, None] == _ALL_CODES, _ONE, self.trips
        )

    def reload_factors(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Classic reload factors for operands A(m,k), B(k,n), C(m,n)."""
        exc = self.reload_matrix()
        return exc[:, 1], exc[:, 0], exc[:, 2]

    def build_results(
        self,
        hw: SpatialHWConfig,
        latency_s: np.ndarray,
        energy_j: np.ndarray,
        compute_cycles: np.ndarray,
        noc_cycles: np.ndarray,
        dram_cycles: np.ndarray,
        dram_bytes: np.ndarray,
    ) -> List[LayerPPA]:
        """Assemble per-candidate :class:`LayerPPA` objects in input order,
        with the cost models' cheap builders
        (:func:`~repro.ppa.feasible_ppa`).  The all-feasible
        fast path skips the per-item flag checks entirely.
        """
        # bulk ndarray -> python-float conversion: one C call per column
        # instead of one float() per cell
        rows = zip(
            latency_s.tolist(), energy_j.tolist(), compute_cycles.tolist(),
            noc_cycles.tolist(), dram_cycles.tolist(), dram_bytes.tolist(),
        )
        if not (self.l1_bad.any() or self.l2_bad.any()):
            return list(starmap(feasible_ppa, rows))
        l1_bad = self.l1_bad.tolist()
        l2_bad = self.l2_bad.tolist()
        l1_need = self.l1_need.tolist()
        l2_need = self.l2_need.tolist()
        results: List[LayerPPA] = []
        for i, row in enumerate(rows):
            if l1_bad[i]:
                results.append(infeasible_ppa(
                    f"L1 overflow: need {l1_need[i]} B per PE, "
                    f"have {hw.l1_bytes} B"
                ))
            elif l2_bad[i]:
                results.append(infeasible_ppa(
                    f"L2 overflow: need {l2_need[i]} B, have {hw.l2_bytes} B"
                ))
            else:
                results.append(feasible_ppa(*row))
        return results


def analyze_gemm_batch(
    hw: SpatialHWConfig,
    mappings: Sequence[GemmMapping],
    shape: GemmShape,
) -> List[LayerPPA]:
    """Batch equivalent of :func:`repro.costmodel.maestro.analyze_gemm`.

    Returns one :class:`LayerPPA` per input mapping, in order, each equal
    to what the scalar call would produce.
    """
    if not mappings:
        return []
    soa = BatchSoA(hw, mappings, shape)
    reuse = shape.reuse_penalty
    tm, tn, tk = soa.tm, soa.tn, soa.tk
    n_tiles = soa.n_tiles
    _, _, const_a, const_b, c0, c2, c0_less_c2, base_energy, reg4 = (
        _shape_consts(shape)
    )

    # --- DRAM <-> L2 traffic -------------------------------------------------
    # Integer products stay int64 (exact); x / 1.0 is a bitwise identity in
    # the scalar code, so the division is skipped when reuse_penalty is 1.
    # reload_matrix columns are (B-factor, A-factor, C-factor).
    exc = soa.reload_matrix()
    dram_a = const_a * exc[:, 1]
    dram_b = const_b * exc[:, 0]
    if reuse != 1.0:
        dram_a = dram_a / reuse
        dram_b = dram_b / reuse
    # scalar form: c0 + c2 * (reload_c - 1); distributing c2 saves an array
    # op and stays bit-identical while every intermediate is an exact
    # integer (true for any realistic shape: |values| << 2**53)
    dram_c = c2 * exc[:, 2] + c0_less_c2
    dram_bytes = dram_a + dram_b + dram_c

    # --- L2 <-> L1 (NoC) traffic ---------------------------------------------
    if hw.dataflow == "ws":
        nt_tm = n_tiles * tm
        noc_a = nt_tm * tk
        if _OP_B != 1:  # x * 1 is an integer identity — skip the array op
            noc_a = noc_a * _OP_B
        if reuse != 1.0:
            noc_a = noc_a / reuse
        # the scalar ws branch recomputes dram_b's exact expression
        noc_b = dram_b
        noc_c = nt_tm * tn * _ACC_B
    else:  # output stationary
        noc_a = n_tiles * tm * tk
        noc_b = n_tiles * tk * tn
        if _OP_B != 1:
            noc_a = noc_a * _OP_B
            noc_b = noc_b * _OP_B
        if reuse != 1.0:
            noc_a = noc_a / reuse
            noc_b = noc_b / reuse
        # reduction innermost: accumulator completes inside the PE;
        # otherwise the partial sums refetch, c0 + c2 * (trips_k - 1)
        noc_c = np.where(
            soa.inner_code == 2, c0, c2 * soa.trips_k + c0_less_c2
        )
    noc_bytes = noc_a + noc_b + noc_c

    # --- latency ---------------------------------------------------------------
    # fill = pe_m + pe_n, identical under either spatial choice
    fill, noc_denom, l1_e, l2_e = _hw_consts(hw)
    issue_overhead = _QUARTER / soa.unroll
    compute_cycles = n_tiles * (
        soa.smsn * tk * (_ONE_F + issue_overhead) + fill
    )
    noc_cycles = noc_bytes / noc_denom
    dram_cycles = dram_bytes / _DRAM_BW
    latency_s = (
        np.maximum(np.maximum(compute_cycles, noc_cycles), dram_cycles)
        + _STARTUP_CYCLES
    ) / _FREQUENCY

    # --- energy ----------------------------------------------------------------
    l1_access_bytes = reg4 + noc_bytes
    l2_access_bytes = noc_bytes + dram_bytes
    energy_j = (
        base_energy
        + l1_access_bytes * l1_e
        + l2_access_bytes * l2_e
        + dram_bytes * _DRAM_ENERGY
    )

    return soa.build_results(
        hw, latency_s, energy_j, compute_cycles, noc_cycles, dram_cycles,
        dram_bytes,
    )


__all__ = ["BatchSoA", "analyze_gemm_batch"]
