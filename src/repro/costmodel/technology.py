"""Technology constants for the analytical PPA model.

All per-operation energies, per-area leakage, and component areas are
collected in one frozen :class:`Technology` object,
:data:`DEFAULT_TECHNOLOGY`, so a single 16nm-class process assumption
flows through latency/energy/area consistently.  Values
are representative of published accelerator characterizations (Eyeriss,
SIMBA, TPU die shots scaled to 16nm); the co-optimization only depends on
their *relative* magnitudes (DRAM >> L2 > L1 > MAC).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Technology:
    """Process/technology parameters shared by the cost models.

    Energies are Joules per unit; areas are mm^2 per unit; the clock is Hz.
    """

    # timing
    frequency_hz: float
    dram_bw_bytes_per_cycle: float

    # dynamic energy
    mac_energy_j: float
    reg_energy_per_byte_j: float
    l1_energy_per_byte_base_j: float  # at 1 KB; scales with size^0.25
    l2_energy_per_byte_base_j: float  # at 64 KB; scales with size^0.25
    dram_energy_per_byte_j: float

    # static (leakage) power, proportional to area
    leakage_w_per_mm2: float

    # area
    pe_area_mm2: float  # MAC + registers + control per PE
    sram_area_mm2_per_kb: float
    bank_area_overhead: float  # SRAM area fraction added per extra bank
    noc_area_mm2_per_pe_per_lane: float  # per PE per byte-lane
    base_area_mm2: float  # controller, DMA engines, PLL, pads

    # data widths
    operand_bytes: int
    accum_bytes: int

    def l1_energy_per_byte(self, l1_bytes: int) -> float:
        """SRAM access energy grows ~size^0.25 (bitline/wordline length)."""
        scale = max(l1_bytes / 1024.0, 0.0625) ** 0.25
        return self.l1_energy_per_byte_base_j * scale

    def l2_energy_per_byte(self, l2_bytes: int) -> float:
        scale = max(l2_bytes / (64.0 * 1024.0), 0.0625) ** 0.25
        return self.l2_energy_per_byte_base_j * scale


DEFAULT_TECHNOLOGY = Technology(
    frequency_hz=1.0e9,
    dram_bw_bytes_per_cycle=32.0,
    mac_energy_j=0.20e-12,  # int8 MAC at 16nm-class node
    reg_energy_per_byte_j=0.015e-12,
    l1_energy_per_byte_base_j=0.06e-12,
    l2_energy_per_byte_base_j=0.35e-12,
    dram_energy_per_byte_j=8.0e-12,
    leakage_w_per_mm2=0.020,
    pe_area_mm2=0.0040,
    sram_area_mm2_per_kb=0.0012,
    bank_area_overhead=0.03,  # +3% SRAM area per extra bank
    noc_area_mm2_per_pe_per_lane=0.000008,
    base_area_mm2=0.35,
    operand_bytes=1,  # int8 activations/weights
    accum_bytes=4,  # fp32/int32 accumulators
)
