"""Software-mapping representation for the GEMMCore intrinsic.

A :class:`GemmMapping` fixes, for one GEMM-shaped operator, the scheduling
primitives of Section 2 (split / reorder / unroll):

* **split** — L1-level tile sizes ``(tile_m, tile_n, tile_k)``; tiles are
  divisor-aligned so loop counts are exact,
* **reorder** — the outer (inter-tile) loop order, a permutation of
  ``m, n, k``,
* **spatial** — which tile dims unroll across the PE array axes
  (``"mn"``: m on pe_x / n on pe_y, or ``"nm"`` transposed),
* **unroll** — inner reduction unrolling factor (pipeline ramp hiding).

The per-layer mapping space has on the order of 1e4-1e6 points for the
paper's layer shapes, matching the "~1e6 per layer" quoted in Section 4.1.
A network-level mapping is a dict ``layer name -> GemmMapping``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Tuple

from repro.errors import MappingError
from repro.utils.intmath import divisors, nearest_divisor, step_on_grid
from repro.utils.rng import SeedLike, as_generator
from repro.workloads.layers import GemmShape

#: the largest tile on any axis of a space's grid, to bound footprints
MAX_TILE = 4096

LOOP_ORDERS: Tuple[Tuple[str, str, str], ...] = tuple(
    itertools.permutations(("m", "n", "k"))
)
SPATIAL_CHOICES: Tuple[str, ...] = ("mn", "nm")
UNROLL_CHOICES: Tuple[int, ...] = (1, 2, 4, 8)

#: GEMM dimension codes shared with the batch cost-model kernels
DIM_INDEX: Dict[str, int] = {"m": 0, "n": 1, "k": 2}


@dataclass(frozen=True, init=False)
class GemmMapping:
    """One point in the per-operator software mapping space.

    A search builds thousands per second, so the constructor is written
    out: it validates, then writes the fields and ``_row`` in one pass.
    Equality, hashing, ``repr``, ``replace`` and pickling are the
    dataclass's.  ``loop_order`` is stored as a tuple, whatever sequence
    it was given as.
    """

    tile_m: int
    tile_n: int
    tile_k: int
    loop_order: Tuple[str, str, str] = ("n", "m", "k")
    spatial: str = "mn"
    unroll: int = 1

    def __init__(
        self,
        tile_m: int,
        tile_n: int,
        tile_k: int,
        loop_order: Tuple[str, str, str] = ("n", "m", "k"),
        spatial: str = "mn",
        unroll: int = 1,
    ) -> None:
        if min(tile_m, tile_n, tile_k) < 1:
            raise MappingError(
                f"tile sizes must be >= 1, got {(tile_m, tile_n, tile_k)}"
            )
        order = tuple(loop_order)
        if order not in LOOP_ORDERS:
            raise MappingError(f"invalid loop order {loop_order!r}")
        if spatial not in SPATIAL_CHOICES:
            raise MappingError(f"invalid spatial choice {spatial!r}")
        if unroll not in UNROLL_CHOICES:
            raise MappingError(f"invalid unroll factor {unroll}")
        fields = self.__dict__  # frozen: the dataclass's __setattr__ raises
        fields["tile_m"] = tile_m
        fields["tile_n"] = tile_n
        fields["tile_k"] = tile_k
        fields["loop_order"] = order
        fields["spatial"] = spatial
        fields["unroll"] = unroll
        # canonical integer row consumed by the cost-model kernels
        # (repro.costmodel.maestro, maestro_batch); precomputed once here
        # so evaluation does not re-derive it per candidate per call
        fields["_row"] = (
            tile_m, tile_n, tile_k, unroll,
            1 if spatial == "mn" else 0,
            DIM_INDEX[order[2]],
        )

    def tiles(self) -> Tuple[int, int, int]:
        return (self.tile_m, self.tile_n, self.tile_k)

    def with_tiles(self, tile_m: int, tile_n: int, tile_k: int) -> "GemmMapping":
        return replace(self, tile_m=tile_m, tile_n=tile_n, tile_k=tile_k)

    def key(self) -> Tuple:
        """Hashable identity for visited-set bookkeeping."""
        return (
            self.tile_m,
            self.tile_n,
            self.tile_k,
            self.loop_order,
            self.spatial,
            self.unroll,
        )


class GemmMappingSpace:
    """The mapping space induced by one :class:`GemmShape`.

    Tile sizes range over the divisors of each GEMM dimension (capped at
    :data:`MAX_TILE`), crossed with loop orders, spatial
    choices and unroll factors.
    """

    def __init__(self, shape: GemmShape):
        self.shape = shape
        self.tile_m_choices = tuple(d for d in divisors(shape.m) if d <= MAX_TILE)
        self.tile_n_choices = tuple(d for d in divisors(shape.n) if d <= MAX_TILE)
        self.tile_k_choices = tuple(d for d in divisors(shape.k) if d <= MAX_TILE)
        if not (self.tile_m_choices and self.tile_n_choices and self.tile_k_choices):
            raise MappingError(f"empty tile grid for shape {shape}")

    @property
    def size(self) -> int:
        return (
            len(self.tile_m_choices)
            * len(self.tile_n_choices)
            * len(self.tile_k_choices)
            * len(LOOP_ORDERS)
            * len(SPATIAL_CHOICES)
            * len(UNROLL_CHOICES)
        )

    def sample(self, seed: SeedLike = None) -> GemmMapping:
        rng = as_generator(seed)
        return GemmMapping(
            tile_m=int(self.tile_m_choices[rng.integers(0, len(self.tile_m_choices))]),
            tile_n=int(self.tile_n_choices[rng.integers(0, len(self.tile_n_choices))]),
            tile_k=int(self.tile_k_choices[rng.integers(0, len(self.tile_k_choices))]),
            loop_order=LOOP_ORDERS[int(rng.integers(0, len(LOOP_ORDERS)))],
            spatial=SPATIAL_CHOICES[int(rng.integers(0, len(SPATIAL_CHOICES)))],
            unroll=UNROLL_CHOICES[int(rng.integers(0, len(UNROLL_CHOICES)))],
        )

    def seeded_mapping(self, pe_x: int, pe_y: int) -> GemmMapping:
        """A sensible starting point: tiles snapped near the PE array shape.

        Heuristic seeds accelerate every search tool without biasing the
        comparison (all tools share the same seeding rule).
        """
        tile_m = nearest_divisor(self.shape.m, max(pe_x, min(self.shape.m, 4 * pe_x)))
        tile_n = nearest_divisor(self.shape.n, max(pe_y, min(self.shape.n, 4 * pe_y)))
        tile_k = nearest_divisor(self.shape.k, min(self.shape.k, 64))
        return GemmMapping(tile_m=tile_m, tile_n=tile_n, tile_k=tile_k)

    def seeded_mapping_for(self, hw) -> GemmMapping:
        """Capacity-aware seed: the largest tiling that fits ``hw``'s buffers.

        Mirrors what a production auto-scheduler's first candidate looks
        like: spread m/n over the PE array with a small per-PE sub-tile,
        choose the deepest reduction tile the (double-buffered) L1 budget
        allows, and keep the reduction loop innermost so accumulators
        complete in place.  Falls back to the plain PE-shaped seed when
        nothing fits.
        """
        m, n, k = self.shape.m, self.shape.n, self.shape.k
        l1_bytes = getattr(hw, "l1_bytes", None)
        l2_bytes = getattr(hw, "l2_bytes", None)
        if l1_bytes is None or l2_bytes is None:
            return self.seeded_mapping(hw.pe_x, hw.pe_y)
        acc_bytes = 4
        for sub in (8, 4, 2, 1):
            tile_m = nearest_divisor(m, min(m, sub * hw.pe_x))
            tile_n = nearest_divisor(n, min(n, sub * hw.pe_y))
            sub_m = -(-tile_m // hw.pe_x)
            sub_n = -(-tile_n // hw.pe_y)
            # 2*(sub_m*tk + tk*sub_n) + sub_m*sub_n*acc <= l1_bytes
            tk_budget = (l1_bytes - sub_m * sub_n * acc_bytes) // (
                2 * (sub_m + sub_n)
            )
            if tk_budget < 1:
                continue
            tile_k = nearest_divisor(k, min(k, int(tk_budget), 512))
            while (
                2 * (sub_m * tile_k + tile_k * sub_n) + sub_m * sub_n * acc_bytes
                > l1_bytes
                and tile_k > 1
            ):
                tile_k = nearest_divisor(k, max(1, tile_k // 2))
            l1_need = (
                2 * (sub_m * tile_k + tile_k * sub_n) + sub_m * sub_n * acc_bytes
            )
            l2_need = 2 * (tile_m + tile_n) * tile_k + tile_m * tile_n * acc_bytes
            if l1_need <= l1_bytes and l2_need <= l2_bytes:
                return GemmMapping(
                    tile_m=tile_m,
                    tile_n=tile_n,
                    tile_k=tile_k,
                    loop_order=("n", "m", "k"),
                    unroll=4,
                )
        return self.seeded_mapping(hw.pe_x, hw.pe_y)

    def mutate(self, mapping: GemmMapping, seed: SeedLike = None) -> GemmMapping:
        """Propose a neighbor by perturbing one primitive."""
        rng = as_generator(seed)
        move = int(rng.integers(0, 6))
        tiles = [mapping.tile_m, mapping.tile_n, mapping.tile_k]
        loop_order, spatial, unroll = mapping.loop_order, mapping.spatial, mapping.unroll
        if move < 3:
            grid = (self.tile_m_choices, self.tile_n_choices, self.tile_k_choices)[
                move
            ]
            tiles[move] = step_on_grid(grid, tiles[move], rng)
        elif move == 3:
            loop_order = LOOP_ORDERS[int(rng.integers(0, len(LOOP_ORDERS)))]
        elif move == 4:
            spatial = "nm" if spatial == "mn" else "mn"
        else:
            unroll = UNROLL_CHOICES[int(rng.integers(0, len(UNROLL_CHOICES)))]
        return GemmMapping(*tiles, loop_order, spatial, unroll)

    def crossover(
        self, parent_a: GemmMapping, parent_b: GemmMapping, seed: SeedLike = None
    ) -> GemmMapping:
        """Uniform crossover (GAMMA-style genetic operator)."""
        rng = as_generator(seed)

        def pick(field_name: str):
            source = parent_a if rng.random() < 0.5 else parent_b
            return getattr(source, field_name)

        return GemmMapping(
            tile_m=pick("tile_m"),
            tile_n=pick("tile_n"),
            tile_k=pick("tile_k"),
            loop_order=pick("loop_order"),
            spatial=pick("spatial"),
            unroll=pick("unroll"),
        )


#: Spaces :func:`shared_space` holds, bounded like ``maestro.CONSTS_HELD``
SPACES_HELD = 256


@lru_cache(maxsize=SPACES_HELD)
def shared_space(shape: GemmShape) -> GemmMappingSpace:
    """The one :class:`GemmMappingSpace` of ``shape``.

    A space depends on its shape alone and no search writes to one, so
    every search on every hardware config shares one space per shape.
    """
    return GemmMappingSpace(shape)


NetworkMapping = Dict[str, GemmMapping]
