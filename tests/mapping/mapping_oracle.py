"""Three mapping-search primitives as they were written before they were
made cheap: the oracles ``test_mapping_oracle.py`` holds ``src/`` to.

* :class:`GemmMapping` — the generated dataclass constructor plus a
  ``__post_init__`` that validates and sets ``_row``; ``loop_order`` is
  stored as given.
* :func:`nearest_divisor` — a linear scan over every divisor.
* :class:`RebuildEveryPick` — a search mixin whose layer pick re-sums and
  re-cumsums the weights whenever any weight was marked stale, whether or
  not its value moved.

``src/`` keeps one of each; these copies exist only as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import MappingError
from repro.mapping.gemm_mapping import (
    DIM_INDEX,
    LOOP_ORDERS,
    SPATIAL_CHOICES,
    UNROLL_CHOICES,
)
from repro.utils.intmath import divisors


@dataclass(frozen=True)
class GemmMapping:
    """One point in the per-operator software mapping space."""

    tile_m: int
    tile_n: int
    tile_k: int
    loop_order: Tuple[str, str, str] = ("n", "m", "k")
    spatial: str = "mn"
    unroll: int = 1

    def __post_init__(self) -> None:
        if min(self.tile_m, self.tile_n, self.tile_k) < 1:
            raise MappingError(
                f"tile sizes must be >= 1, got "
                f"{(self.tile_m, self.tile_n, self.tile_k)}"
            )
        if tuple(self.loop_order) not in LOOP_ORDERS:
            raise MappingError(f"invalid loop order {self.loop_order!r}")
        if self.spatial not in SPATIAL_CHOICES:
            raise MappingError(f"invalid spatial choice {self.spatial!r}")
        if self.unroll not in UNROLL_CHOICES:
            raise MappingError(f"invalid unroll factor {self.unroll}")
        object.__setattr__(self, "_row", (
            self.tile_m, self.tile_n, self.tile_k, self.unroll,
            1 if self.spatial == "mn" else 0,
            DIM_INDEX[self.loop_order[2]],
        ))

    def key(self) -> Tuple:
        return (
            self.tile_m,
            self.tile_n,
            self.tile_k,
            self.loop_order,
            self.spatial,
            self.unroll,
        )


def nearest_divisor(n: int, target: int) -> int:
    """The divisor of ``n`` closest to ``target`` (ties go low), by scan."""
    candidates = divisors(n)
    best = candidates[0]
    best_gap = abs(best - target)
    for cand in candidates[1:]:
        gap = abs(cand - target)
        if gap < best_gap:
            best, best_gap = cand, gap
    return best


class RebuildEveryPick:
    """Mixin: ``_pick_weighted_layer`` rebuilding on every stale mark."""

    def _pick_weighted_layer(self) -> Optional[str]:
        if self._stale_weights:
            for layer_name in self._stale_weights:
                self._pick_weights[self._layer_index[layer_name]] = (
                    self._layer_weight(layer_name)
                )
            self._stale_weights.clear()
            total = self._pick_weights.sum()
            if 0.0 < total < np.inf:  # false for a nan / inf weight too
                cdf = (self._pick_weights / total).cumsum()
                cdf /= cdf[-1]
                self._pick_cdf = cdf
            else:
                self._pick_cdf = None
        if self._pick_cdf is None:
            return None
        return self.layer_names[
            int(self._pick_cdf.searchsorted(self.rng.random(), side="right"))
        ]
