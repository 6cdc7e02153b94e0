"""CoSA-like one-shot constrained mapper.

CoSA (Huang et al., ISCA'21 — cited as [28]) shows that a good mapping can
be *constructed* from the problem and hardware constraints instead of
searched for.  This module implements that spirit analytically:

1. spread m over pe_x and n over pe_y with a per-PE sub-tile chosen so
   utilization is high,
2. grow the reduction tile k to the largest divisor the double-buffered L1
   budget allows (maximizing operand reuse per fill),
3. shrink m/n tiles if the L2 working set overflows,
4. put the reduction loop innermost (accumulators complete in place) and
   order the remaining inter-tile loops largest-trip-outermost (best
   residency for the stationary operand).

As an :class:`AnytimeMappingSearch` it constructs its mapping for every
layer in its first |layers| steps and is idle afterwards — giving
successive halving a meaningful "converges instantly, cannot improve"
member, and the tests a strong non-iterative baseline.
"""

from __future__ import annotations

from typing import Tuple

from repro.mapping.base import AnytimeMappingSearch
from repro.mapping.gemm_mapping import GemmMapping
from repro.ppa import LayerPPA
from repro.utils.intmath import nearest_divisor, round_up_div

#: bytes of one accumulator in the L1 budget
ACC_BYTES = 4


def construct_mapping(shape, hw) -> GemmMapping:
    """Build the constrained-optimization mapping for one GEMM on ``hw``."""
    m, n, k = shape.m, shape.n, shape.k
    best = GemmMapping(1, 1, 1)
    best_utilization = -1.0
    for sub in (8, 4, 2, 1):
        tile_m = nearest_divisor(m, min(m, sub * hw.pe_x))
        tile_n = nearest_divisor(n, min(n, sub * hw.pe_y))
        sub_m = round_up_div(tile_m, hw.pe_x)
        sub_n = round_up_div(tile_n, hw.pe_y)
        tk_budget = (hw.l1_bytes - sub_m * sub_n * ACC_BYTES) // (
            2 * (sub_m + sub_n)
        )
        if tk_budget < 1:
            continue
        tile_k = nearest_divisor(k, min(k, int(tk_budget)))
        while (
            2 * (sub_m * tile_k + tile_k * sub_n) + sub_m * sub_n * ACC_BYTES
            > hw.l1_bytes
            and tile_k > 1
        ):
            tile_k = nearest_divisor(k, max(1, tile_k // 2))
        # L2 working set: shrink the larger of m/n until it fits
        while (
            2 * (tile_m + tile_n) * tile_k + tile_m * tile_n * ACC_BYTES
            > hw.l2_bytes
            and max(tile_m, tile_n) > 1
        ):
            if tile_m >= tile_n:
                tile_m = nearest_divisor(m, max(1, tile_m // 2))
            else:
                tile_n = nearest_divisor(n, max(1, tile_n // 2))
        l1_fits = (
            2 * (sub_m * tile_k + tile_k * sub_n) + sub_m * sub_n * ACC_BYTES
            <= hw.l1_bytes
        )
        l2_fits = (
            2 * (tile_m + tile_n) * tile_k + tile_m * tile_n * ACC_BYTES
            <= hw.l2_bytes
        )
        if not (l1_fits and l2_fits):
            continue
        utilization = (min(tile_m, hw.pe_x) * min(tile_n, hw.pe_y)) / (
            hw.pe_x * hw.pe_y
        )
        # prefer higher utilization; break ties toward deeper reduction
        score = utilization + 1e-6 * tile_k
        if score > best_utilization:
            best_utilization = score
            trips = {
                "m": round_up_div(m, tile_m),
                "n": round_up_div(n, tile_n),
                "k": round_up_div(k, tile_k),
            }
            outer_two = sorted(("m", "n"), key=lambda d: -trips[d])
            best = GemmMapping(
                tile_m=tile_m,
                tile_n=tile_n,
                tile_k=tile_k,
                loop_order=(outer_two[0], outer_two[1], "k"),
                spatial="mn",
                unroll=4 if tile_k % 4 == 0 else 1,
            )
    return best


class CosaMapper(AnytimeMappingSearch):
    """One-shot constructed mapping per layer (no iterative improvement)."""

    name = "cosa"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = list(self.layer_names)

    def _propose(self) -> Tuple[str, GemmMapping]:
        if self._pending:
            layer_name = self._pending.pop(0)
        else:
            # constructed already; re-propose the incumbent (idle steps)
            layer_name = self.layer_names[
                self.spent_budget % len(self.layer_names)
            ]
            return layer_name, self.best_layer_mapping[layer_name]
        shape = self.spaces[layer_name].shape
        return layer_name, construct_mapping(shape, self.hw)

    def _on_result(
        self, layer_name: str, mapping: GemmMapping, result: LayerPPA, improved: bool
    ) -> None:
        """No strategy state: construction is deterministic and one-shot."""
