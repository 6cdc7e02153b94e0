"""Loop-nest IR for tensor programs.

Section 2 frames software mapping as scheduling a DSL program: "commonly
used primitives for loop transformation include loop split, reorder, fuse,
and tiling ... the smallest computation unit (e.g. inner-most loop) can be
mapped directly to certain HW resources spatially or temporally".

This module is that representation: a :class:`LoopNest` is an ordered list
of :class:`Loop` axes over a statement's iteration domain, each axis
carrying how it is bound (temporal / spatial / unrolled).  Scheduling
primitives are pure transformations returning new nests, and every nest
can be checked for semantic equivalence with its origin (same iteration
volume per original dimension).

:mod:`repro.ir.schedule` applies primitive sequences, and
:mod:`repro.ir.lowering` lowers a scheduled GEMM nest onto the GEMMCore
intrinsic's :class:`~repro.mapping.gemm_mapping.GemmMapping`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import MappingError

#: how a loop axis is executed
BINDINGS = ("temporal", "spatial_x", "spatial_y", "unroll")


@dataclass(frozen=True)
class Loop:
    """One loop axis: a named dimension segment with an extent and binding."""

    dim: str  # the original tensor dimension this axis iterates ("m", ...)
    name: str  # unique axis name, e.g. "m.0", "m.1" after splits
    extent: int
    binding: str = "temporal"

    def __post_init__(self) -> None:
        if self.extent < 1:
            raise MappingError(f"loop {self.name!r} extent must be >= 1")
        if self.binding not in BINDINGS:
            raise MappingError(
                f"loop {self.name!r} binding must be one of {BINDINGS}, "
                f"got {self.binding!r}"
            )


@dataclass(frozen=True)
class LoopNest:
    """An ordered (outermost-first) nest over a statement's domain."""

    loops: Tuple[Loop, ...]
    domain: Tuple[Tuple[str, int], ...]  # original (dim, size) pairs

    def __post_init__(self) -> None:
        names = [loop.name for loop in self.loops]
        if len(set(names)) != len(names):
            raise MappingError(f"duplicate loop names in nest: {names}")

    # ------------------------------------------------------------------ intro
    @classmethod
    def from_domain(cls, domain: Sequence[Tuple[str, int]]) -> "LoopNest":
        """The canonical untiled nest: one temporal loop per dimension."""
        loops = tuple(
            Loop(dim=dim, name=f"{dim}.0", extent=size) for dim, size in domain
        )
        return cls(loops=loops, domain=tuple(domain))

    # ------------------------------------------------------------------ views
    def loop(self, name: str) -> Loop:
        for candidate in self.loops:
            if candidate.name == name:
                return candidate
        raise MappingError(f"no loop named {name!r} in nest")

    def index_of(self, name: str) -> int:
        for position, candidate in enumerate(self.loops):
            if candidate.name == name:
                return position
        raise MappingError(f"no loop named {name!r} in nest")

    def extent_product(self, dim: str) -> int:
        """Total iteration count contributed by ``dim``'s axes."""
        product = 1
        for loop in self.loops:
            if loop.dim == dim:
                product *= loop.extent
        return product

    def volume(self) -> int:
        product = 1
        for loop in self.loops:
            product *= loop.extent
        return product

    def is_equivalent_to_domain(self) -> bool:
        """Semantic check: per-dimension iteration volume is preserved."""
        return all(
            self.extent_product(dim) == size for dim, size in self.domain
        )

    def spatial_loops(self) -> List[Loop]:
        return [l for l in self.loops if l.binding.startswith("spatial")]

    def innermost_temporal(self) -> Optional[Loop]:
        for loop in reversed(self.loops):
            if loop.binding == "temporal":
                return loop
        return None

    # --------------------------------------------------------------- rewrites
    def split(self, name: str, factor: int) -> "LoopNest":
        """split(l, f): l -> (l_outer extent/f, l_inner f); f must divide."""
        position = self.index_of(name)
        target = self.loops[position]
        if factor < 1 or target.extent % factor != 0:
            raise MappingError(
                f"split factor {factor} must divide extent {target.extent} "
                f"of loop {name!r}"
            )
        base = target.name.rsplit(".", 1)[0]
        suffixes = [
            int(l.name.rsplit(".", 1)[1])
            for l in self.loops
            if l.dim == target.dim and l.name.rsplit(".", 1)[0] == base
        ]
        next_suffix = max(suffixes) + 1
        outer = replace(target, extent=target.extent // factor)
        inner = Loop(
            dim=target.dim,
            name=f"{base}.{next_suffix}",
            extent=factor,
            binding=target.binding,
        )
        loops = (
            self.loops[:position] + (outer, inner) + self.loops[position + 1 :]
        )
        return replace(self, loops=loops)

    def reorder(self, order: Sequence[str]) -> "LoopNest":
        """Permute the nest; ``order`` must name every loop exactly once."""
        if sorted(order) != sorted(l.name for l in self.loops):
            raise MappingError(
                f"reorder must be a permutation of {[l.name for l in self.loops]}"
            )
        by_name = {l.name: l for l in self.loops}
        return replace(self, loops=tuple(by_name[name] for name in order))

    def bind(self, name: str, binding: str) -> "LoopNest":
        """Bind an axis to a hardware resource (spatial axis / unroll)."""
        if binding not in BINDINGS:
            raise MappingError(f"unknown binding {binding!r}")
        if binding in ("spatial_x", "spatial_y"):
            for loop in self.loops:
                if loop.binding == binding and loop.name != name:
                    raise MappingError(
                        f"binding {binding!r} already taken by {loop.name!r}"
                    )
        position = self.index_of(name)
        rebound = replace(self.loops[position], binding=binding)
        loops = self.loops[:position] + (rebound,) + self.loops[position + 1 :]
        return replace(self, loops=loops)

    def fuse(self, first: str, second: str) -> "LoopNest":
        """Fuse two *adjacent* same-dimension axes into one."""
        i = self.index_of(first)
        j = self.index_of(second)
        if j != i + 1:
            raise MappingError(
                f"can only fuse adjacent loops, got positions {i} and {j}"
            )
        loop_a, loop_b = self.loops[i], self.loops[j]
        if loop_a.dim != loop_b.dim:
            raise MappingError(
                f"cannot fuse loops over different dims "
                f"{loop_a.dim!r} and {loop_b.dim!r}"
            )
        if loop_a.binding != loop_b.binding:
            raise MappingError("cannot fuse loops with different bindings")
        fused = replace(loop_a, extent=loop_a.extent * loop_b.extent)
        loops = self.loops[:i] + (fused,) + self.loops[j + 1 :]
        return replace(self, loops=loops)

    def pretty(self) -> str:
        """Human-readable nest listing."""
        lines = []
        for depth, loop in enumerate(self.loops):
            marker = {
                "temporal": "for",
                "spatial_x": "par_x",
                "spatial_y": "par_y",
                "unroll": "unroll",
            }[loop.binding]
            lines.append("  " * depth + f"{marker} {loop.name} in 0..{loop.extent}")
        return "\n".join(lines)


def gemm_domain(m: int, n: int, k: int) -> Tuple[Tuple[str, int], ...]:
    """The GEMM iteration domain."""
    return (("m", m), ("n", n), ("k", k))
