"""Seeded random-number plumbing.

Every stochastic component in the library (mapping search, MOBO acquisition,
genetic baselines, the CA-model noise channel) receives its randomness from
an explicit :class:`numpy.random.Generator`.  Nothing in the package touches
the global NumPy random state, so experiments replay deterministically from a
single root seed.

Two helpers are provided:

* :func:`as_generator` — normalize ``None | int | Generator`` into a
  ``Generator`` (convenient for public APIs that accept a ``seed`` argument).
* :class:`SeedSequenceFactory` — hand out independent child generators from a
  root seed.  Children are derived with named streams so that adding a new
  consumer does not perturb the randomness of existing ones.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a non-deterministic generator; an ``int`` seeds a fresh
    PCG64 generator; an existing ``Generator`` is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _stream_entropy(name: str) -> int:
    """Derive a stable 64-bit integer from a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeedSequenceFactory:
    """Derive independent, *named* random streams from one root seed.

    Streams are keyed by name rather than by creation order, so components
    can be added or removed without shifting anybody else's randomness::

        factory = SeedSequenceFactory(root_seed=7)
        gp_rng = factory.generator("mobo.surrogate")
        sw_rng = factory.generator("mapping.flextensor", index=3)

    Repeated requests for the same ``(name, index)`` return generators with
    identical state.
    """

    def __init__(self, root_seed: int = 0):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def spawn_seed(self, name: str, index: int = 0) -> int:
        """Return the integer seed for stream ``(name, index)``."""
        mixed = (self._root_seed * 0x9E3779B97F4A7C15 + _stream_entropy(name) + index) % (
            2**63
        )
        return mixed

    def generator(self, name: str, index: int = 0) -> np.random.Generator:
        """Return a fresh generator for stream ``(name, index)``."""
        return np.random.default_rng(self.spawn_seed(name, index))

    def child(self, name: str, index: int = 0) -> "SeedSequenceFactory":
        """Return a factory rooted at the seed of stream ``(name, index)``."""
        return SeedSequenceFactory(self.spawn_seed(name, index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequenceFactory(root_seed={self._root_seed})"


def spawn_generators(
    seed: SeedLike, count: int, name: str = "spawn"
) -> list:  # list[np.random.Generator]
    """Spawn ``count`` independent generators derived from ``seed``.

    Useful for handing one generator to each parallel worker.  When ``seed``
    is already a ``Generator``, child seeds are drawn from it.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seeds = seed.integers(0, 2**63, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    factory = SeedSequenceFactory(0 if seed is None else int(seed))
    return [factory.generator(name, index=i) for i in range(count)]
