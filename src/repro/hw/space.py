"""Generic discrete hardware design-space machinery.

Both platforms (the open-source spatial accelerator and the Ascend-like
core) are described as Cartesian products of named discrete dimensions.
:class:`DiscreteDesignSpace` provides the operations every search algorithm
in the library needs:

* uniform sampling and mutation (for genetic / random baselines),
* ordinal encoding of configurations into ``[0, 1]^d`` vectors and decoding
  back (for the GP surrogate and acquisition optimization),
* cardinality and membership checks.

Concrete spaces subclass it, supply dimension grids, and implement
``to_config`` / ``from_config`` to translate between assignment dicts and
typed config dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Generic, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import DesignSpaceError
from repro.utils.rng import SeedLike, as_generator

ConfigT = TypeVar("ConfigT")

#: the most grid positions one :meth:`DiscreteDesignSpace.mutate` move shifts
MUTATE_STEP = 2


@dataclass(frozen=True)
class Dimension:
    """One named discrete axis with an ordered choice grid."""

    name: str
    choices: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.choices:
            raise DesignSpaceError(f"dimension {self.name!r} has no choices")
        if len(set(self.choices)) != len(self.choices):
            raise DesignSpaceError(f"dimension {self.name!r} has duplicate choices")

    def __len__(self) -> int:
        return len(self.choices)

    @cached_property
    def _index_map(self) -> Dict[Any, int]:
        """O(1) value -> ordinal index lookup (choices are hashable)."""
        return {value: index for index, value in enumerate(self.choices)}

    @cached_property
    def codes(self) -> np.ndarray:
        """Normalized ordinal code of every choice, in grid order."""
        if len(self.choices) == 1:
            return np.zeros(1)
        span = len(self.choices) - 1
        return np.array([index / span for index in range(len(self.choices))])

    def index_of(self, value: Any) -> int:
        try:
            return self._index_map[value]
        except (KeyError, TypeError):
            raise DesignSpaceError(
                f"value {value!r} not in dimension {self.name!r}"
            ) from None

    def encode(self, value: Any) -> float:
        """Map a choice to its normalized ordinal position in [0, 1]."""
        if len(self.choices) == 1:
            return 0.0
        return self.index_of(value) / (len(self.choices) - 1)

    def decode(self, coordinate: float) -> Any:
        """Map a [0, 1] coordinate to the nearest grid choice."""
        position = float(np.clip(coordinate, 0.0, 1.0)) * (len(self.choices) - 1)
        return self.choices[int(round(position))]


class DiscreteDesignSpace(Generic[ConfigT]):
    """A Cartesian product of :class:`Dimension` axes with typed configs."""

    def __init__(self, name: str, dimensions: Sequence[Dimension]):
        if not dimensions:
            raise DesignSpaceError(f"design space {name!r} has no dimensions")
        names = [dim.name for dim in dimensions]
        if len(set(names)) != len(names):
            raise DesignSpaceError(f"design space {name!r} has duplicate dimensions")
        self.name = name
        self.dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self._by_name: Dict[str, Dimension] = {dim.name: dim for dim in dimensions}

    # -- subclass contract -------------------------------------------------
    def to_config(self, assignment: Dict[str, Any]) -> ConfigT:
        """Build a typed config from a full dimension assignment."""
        raise NotImplementedError

    def from_config(self, config: ConfigT) -> Dict[str, Any]:
        """Extract the dimension assignment from a typed config."""
        raise NotImplementedError

    # -- generic operations -------------------------------------------------
    @property
    def num_dimensions(self) -> int:
        return len(self.dimensions)

    @property
    def size(self) -> int:
        """Cardinality of the Cartesian product."""
        total = 1
        for dim in self.dimensions:
            total *= len(dim)
        return total

    def sample(self, seed: SeedLike = None) -> ConfigT:
        """Draw one uniform-random configuration."""
        rng = as_generator(seed)
        assignment = {
            dim.name: dim.choices[int(rng.integers(0, len(dim)))]
            for dim in self.dimensions
        }
        return self.to_config(assignment)

    def sample_batch(self, count: int, seed: SeedLike = None) -> List[ConfigT]:
        """Draw ``count`` distinct configurations."""
        if count < 0:
            raise DesignSpaceError(f"count must be non-negative, got {count}")
        rng = as_generator(seed)
        seen: set = set()
        batch: List[ConfigT] = []
        attempts = 0
        max_attempts = max(1000, 50 * count)
        while len(batch) < count and attempts < max_attempts:
            candidate = self.sample(rng)
            key = tuple(self.encode(candidate))
            if key not in seen:
                seen.add(key)
                batch.append(candidate)
            attempts += 1
        if len(batch) < count:
            raise DesignSpaceError(
                f"could not draw {count} unique configs from {self.name!r} "
                f"(size {self.size})"
            )
        return batch

    def encode(self, config: ConfigT) -> np.ndarray:
        """Encode a config as a normalized ordinal vector in [0, 1]^d."""
        assignment = self.from_config(config)
        return np.array(
            [dim.encode(assignment[dim.name]) for dim in self.dimensions],
            dtype=float,
        )

    def encode_batch(self, configs: Sequence[ConfigT]) -> np.ndarray:
        """Encode many configs into one ``(len(configs), d)`` matrix.

        One NumPy allocation for the whole batch with cached per-dimension
        code tables; values are bit-identical to stacking :meth:`encode`
        rows (same ``index / (len - 1)`` arithmetic).
        """
        if not configs:
            return np.zeros((0, self.num_dimensions))
        codes = [dim.codes for dim in self.dimensions]
        rows = []
        for config in configs:
            assignment = self.from_config(config)
            rows.append(
                [
                    codes[i][dim.index_of(assignment[dim.name])]
                    for i, dim in enumerate(self.dimensions)
                ]
            )
        return np.array(rows, dtype=float)

    @cached_property
    def _choice_counts(self) -> np.ndarray:
        """Per-dimension grid cardinalities (for batched index draws)."""
        return np.array([len(dim) for dim in self.dimensions], dtype=np.int64)

    def sample_indices(self, count: int, seed: SeedLike = None) -> np.ndarray:
        """Draw a ``(count, d)`` matrix of uniform grid indices in one call.

        Consumes the generator stream exactly like ``count`` sequential
        :meth:`sample` calls (NumPy fills bounded integer draws row-major,
        one bounded draw per element), so batched pool construction stays
        bit-compatible with the scalar sampling loop it replaces.
        """
        if count < 0:
            raise DesignSpaceError(f"count must be non-negative, got {count}")
        rng = as_generator(seed)
        if count == 0:
            return np.zeros((0, self.num_dimensions), dtype=np.int64)
        return rng.integers(
            0, self._choice_counts, size=(count, self.num_dimensions)
        )

    def config_from_indices(self, indices: Sequence[int]) -> ConfigT:
        """Build the typed config selected by one row of grid indices."""
        assignment = {
            dim.name: dim.choices[int(indices[i])]
            for i, dim in enumerate(self.dimensions)
        }
        return self.to_config(assignment)

    def key_from_indices(self, indices: Sequence[int]) -> Tuple[Any, ...]:
        """The :meth:`config_key` of a grid-index row, without building it."""
        return tuple(
            dim.choices[int(indices[i])] for i, dim in enumerate(self.dimensions)
        )

    def encode_indices(self, index_rows: np.ndarray) -> np.ndarray:
        """:meth:`encode_batch` of the configs a ``(count, d)`` index matrix
        selects, gathered from the code tables without building them
        (the same table entries, so the same bytes)."""
        encoded = np.empty(index_rows.shape)
        for i, dim in enumerate(self.dimensions):
            encoded[:, i] = dim.codes[index_rows[:, i]]
        return encoded

    def decode(self, vector: np.ndarray) -> ConfigT:
        """Decode a [0, 1]^d vector to the nearest grid configuration."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.num_dimensions,):
            raise DesignSpaceError(
                f"expected vector of shape ({self.num_dimensions},), "
                f"got {vector.shape}"
            )
        assignment = {
            dim.name: dim.decode(vector[i]) for i, dim in enumerate(self.dimensions)
        }
        return self.to_config(assignment)

    def mutate(
        self,
        config: ConfigT,
        seed: SeedLike = None,
        num_moves: int = 1,
    ) -> ConfigT:
        """Return a neighbor: ``num_moves`` dimensions stepped on their grid.

        Each move shifts one dimension's index by up to :data:`MUTATE_STEP`
        positions — a local move in the ordinal geometry, which is the
        metric the GP encoding uses too.
        """
        rng = as_generator(seed)
        assignment = self.from_config(config)
        move_dims = rng.choice(
            self.num_dimensions, size=min(num_moves, self.num_dimensions), replace=False
        )
        for dim_index in move_dims:
            dim = self.dimensions[int(dim_index)]
            current = dim.index_of(assignment[dim.name])
            offset = 0
            while offset == 0:
                offset = int(rng.integers(-MUTATE_STEP, MUTATE_STEP + 1))
            new_index = min(max(current + offset, 0), len(dim) - 1)
            assignment[dim.name] = dim.choices[new_index]
        return self.to_config(assignment)

    def crossover(
        self, parent_a: ConfigT, parent_b: ConfigT, seed: SeedLike = None
    ) -> ConfigT:
        """Uniform crossover of two configs (for genetic baselines)."""
        rng = as_generator(seed)
        assign_a = self.from_config(parent_a)
        assign_b = self.from_config(parent_b)
        child = {
            name: assign_a[name] if rng.random() < 0.5 else assign_b[name]
            for name in assign_a
        }
        return self.to_config(child)

    def config_key(self, config: ConfigT) -> Tuple[Any, ...]:
        """A hashable identity for de-duplication."""
        assignment = self.from_config(config)
        return tuple(assignment[dim.name] for dim in self.dimensions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, dims={self.num_dimensions}, "
            f"size={self.size:.3g})"
        )
