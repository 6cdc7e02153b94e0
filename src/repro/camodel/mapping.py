"""Software mapping representation for the Ascend-like platform.

The Ascend-like SW mapping tool (Section 4.1) performs a *depth-first
buffer fusion* search: besides tiling each operator for the cube pipeline,
it decides which adjacent operators keep their intermediate tile resident
in L1 (skipping the DDR round-trip).  An :class:`AscendMapping` therefore
carries tile sizes plus two fusion flags:

* ``fuse_input``  — the layer's activations are already in L1 (produced by
  the previous fused layer); the DDR load of the A operand is elided,
* ``fuse_output`` — the layer's output tile stays in L1 for the next layer;
  the DDR store is elided, at the cost of extra L1 residency.

The per-layer space (:class:`AscendMappingSpace`) mirrors the duck-typed
interface of :class:`~repro.mapping.gemm_mapping.GemmMappingSpace` so the
generic anytime-search machinery applies unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Tuple

from repro.errors import MappingError
from repro.utils.intmath import divisors, nearest_divisor, step_on_grid
from repro.utils.rng import SeedLike, as_generator
from repro.workloads.layers import GemmShape

#: the largest tile on any axis of a space's grid
MAX_TILE = 8192


@dataclass(frozen=True)
class AscendMapping:
    """One point in the Ascend-like per-operator mapping space."""

    tile_m: int
    tile_n: int
    tile_k: int
    fuse_input: bool = False
    fuse_output: bool = False

    def __post_init__(self) -> None:
        if min(self.tile_m, self.tile_n, self.tile_k) < 1:
            raise MappingError(
                f"tile sizes must be >= 1, got "
                f"{(self.tile_m, self.tile_n, self.tile_k)}"
            )

    def tiles(self) -> Tuple[int, int, int]:
        return (self.tile_m, self.tile_n, self.tile_k)

    def with_tiles(self, tile_m: int, tile_n: int, tile_k: int) -> "AscendMapping":
        return replace(self, tile_m=tile_m, tile_n=tile_n, tile_k=tile_k)

    def key(self) -> Tuple:
        return dataclasses.astuple(self)


class AscendMappingSpace:
    """Mapping space for one GEMM-shaped operator on the Ascend-like core."""

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
            * 4  # fusion flag combinations
        )

    def sample(self, seed: SeedLike = None) -> AscendMapping:
        rng = as_generator(seed)
        return AscendMapping(
            tile_m=int(self.tile_m_choices[rng.integers(0, len(self.tile_m_choices))]),
            tile_n=int(self.tile_n_choices[rng.integers(0, len(self.tile_n_choices))]),
            tile_k=int(self.tile_k_choices[rng.integers(0, len(self.tile_k_choices))]),
            fuse_input=bool(rng.random() < 0.3),
            fuse_output=bool(rng.random() < 0.3),
        )

    def seeded_mapping_for(self, hw) -> AscendMapping:
        """Tiles snapped near the cube dimensions (x4 in m/n, x8 in k)."""
        return AscendMapping(
            tile_m=nearest_divisor(
                self.shape.m, min(self.shape.m, 4 * hw.cube_m)
            ),
            tile_n=nearest_divisor(
                self.shape.n, min(self.shape.n, 4 * hw.cube_n)
            ),
            tile_k=nearest_divisor(
                self.shape.k, min(self.shape.k, 8 * hw.cube_k)
            ),
        )

    def mutate(self, mapping: AscendMapping, seed: SeedLike = None) -> AscendMapping:
        rng = as_generator(seed)
        move = int(rng.integers(0, 5))
        tiles = [mapping.tile_m, mapping.tile_n, mapping.tile_k]
        fuse_input, fuse_output = mapping.fuse_input, mapping.fuse_output
        if move < 3:
            grid = (self.tile_m_choices, self.tile_n_choices, self.tile_k_choices)[
                move
            ]
            tiles[move] = step_on_grid(grid, tiles[move], rng)
        elif move == 3:
            fuse_input = not fuse_input
        else:
            fuse_output = not fuse_output
        return AscendMapping(*tiles, fuse_input, fuse_output)

    def crossover(
        self, parent_a: AscendMapping, parent_b: AscendMapping, seed: SeedLike = None
    ) -> AscendMapping:
        rng = as_generator(seed)

        def pick(field_name: str):
            source = parent_a if rng.random() < 0.5 else parent_b
            return getattr(source, field_name)

        return AscendMapping(
            tile_m=pick("tile_m"),
            tile_n=pick("tile_n"),
            tile_k=pick("tile_k"),
            fuse_input=pick("fuse_input"),
            fuse_output=pick("fuse_output"),
        )
