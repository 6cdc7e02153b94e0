"""Rendezvous (highest-random-weight) hashing for shard affinity.

The fleet router assigns every candidate key — ``(hw_key, layer,
mapping_key)`` — to one PPA-service replica so that replica's bounded-LRU
engine cache stays hot for its slice of the key space.  Rendezvous hashing
gives the two properties the router needs with no ring state to maintain:

* **Determinism** — every client computes the same owner for a key from
  the member list alone (``blake2b`` digests; Python's builtin ``hash`` is
  per-process salted and useless here).
* **Minimal remapping** — removing one of N shards reassigns *only* the
  keys that shard owned (~1/N of them); every other key keeps its owner
  because its score against the surviving shards did not change.  Adding
  a shard steals ~1/(N+1) of the keys, again leaving the rest untouched.

That second property is exactly what keeps the surviving replicas' caches
warm when a replica dies or drains for a restart.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

__all__ = ["candidate_key", "rank_shards", "rendezvous_score"]


def rendezvous_score(key: str, shard_id: str) -> int:
    """Deterministic 64-bit weight of ``shard_id`` for ``key``."""
    digest = hashlib.blake2b(
        f"{shard_id}\x00{key}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rank_shards(key: str, shard_ids: Sequence[str]) -> List[str]:
    """Shards ordered by descending preference for ``key``.

    The full ranking (not just the winner) is the failover order: when the
    top shard is down or its breaker is open, the key falls to the next
    shard in this list — and returns to its original owner, unmoved, when
    the shard comes back.  Ties (astronomically unlikely with 64-bit
    scores) break on the shard id so every client agrees.
    """
    return sorted(
        shard_ids,
        key=lambda shard_id: (rendezvous_score(key, shard_id), shard_id),
        reverse=True,
    )


def candidate_key(hw_id, twin_key: str, mapping_key) -> str:
    """Stable string identity of one engine query for shard routing.

    Mirrors the engine's LRU cache key ``(hw_key(hw), twin key,
    mapping.key())`` — both are built from the dataclasses' field values —
    so all queries that would share a cache entry, twin layers' included,
    route to the same replica.  ``repr`` of the tuples is stable across
    processes (ints, floats, strings and nested tuples only).
    """
    return repr((hw_id, twin_key, mapping_key))
