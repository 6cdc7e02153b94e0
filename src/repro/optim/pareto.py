"""Pareto-dominance utilities (minimization convention throughout).

Everything the multi-objective layers need: dominance tests, front
extraction, incremental :class:`ParetoFront` maintenance, min-Euclidean-
distance representative selection (the paper's Table 1/2 reporting rule),
and running objective normalization for scalarizers and surrogates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

ItemT = TypeVar("ItemT")


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (<= everywhere, < somewhere)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of ``points`` (n x d)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected 2D array, got shape {points.shape}")
    n = points.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        for j in range(n):
            if i == j or not mask[j]:
                continue
            if dominates(points[j], points[i]):
                mask[i] = False
                break
    return mask


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The non-dominated subset of ``points``."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return points.reshape(0, points.shape[-1] if points.ndim == 2 else 0)
    return points[non_dominated_mask(points)]


def non_dominated_sort(points: np.ndarray) -> List[np.ndarray]:
    """NSGA-II fast non-dominated sort; returns index arrays per front."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    domination_count = np.zeros(n, dtype=int)
    dominated_sets: List[List[int]] = [[] for _ in range(n)]
    fronts: List[List[int]] = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(points[i], points[j]):
                dominated_sets[i].append(j)
            elif dominates(points[j], points[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_sets[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [np.array(front, dtype=int) for front in fronts[:-1]]


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance for one front (n x d)."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if n <= 2:
        return np.full(n, np.inf)
    distance = np.zeros(n)
    for dim in range(d):
        order = np.argsort(points[:, dim])
        span = points[order[-1], dim] - points[order[0], dim]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span <= 0:
            continue
        for rank in range(1, n - 1):
            gap = points[order[rank + 1], dim] - points[order[rank - 1], dim]
            distance[order[rank]] += gap / span
    return distance


@dataclass
class ParetoFront(Generic[ItemT]):
    """Incrementally maintained Pareto archive of (item, objectives).

    Only finite objective vectors are admitted; dominated entries are
    evicted on insertion.
    """

    num_objectives: int
    _items: List[ItemT] = field(default_factory=list)
    _points: List[np.ndarray] = field(default_factory=list)

    def add(self, item: ItemT, objectives: Sequence[float]) -> bool:
        """Insert; returns True iff the point joined the front."""
        point = np.asarray(objectives, dtype=float)
        if point.shape != (self.num_objectives,):
            raise ValueError(
                f"expected {self.num_objectives} objectives, got shape {point.shape}"
            )
        if not np.all(np.isfinite(point)):
            return False
        for existing in self._points:
            if dominates(existing, point) or np.array_equal(existing, point):
                return False
        keep_items: List[ItemT] = []
        keep_points: List[np.ndarray] = []
        for existing_item, existing in zip(self._items, self._points):
            if not dominates(point, existing):
                keep_items.append(existing_item)
                keep_points.append(existing)
        keep_items.append(item)
        keep_points.append(point)
        self._items = keep_items
        self._points = keep_points
        return True

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[ItemT, ...]:
        return tuple(self._items)

    @property
    def points(self) -> np.ndarray:
        if not self._points:
            return np.zeros((0, self.num_objectives))
        return np.vstack(self._points)

    def min_euclidean(self) -> Optional[Tuple[ItemT, np.ndarray]]:
        """The front member closest to the origin (Table 1/2 selection rule).

        Objectives are min-max scaled over the front first so no single unit
        dominates the distance.
        """
        if not self._points:
            return None
        points = self.points
        scaled = points
        if len(self._points) > 1:
            low = points.min(axis=0)
            high = points.max(axis=0)
            span = np.where(high > low, high - low, 1.0)
            scaled = (points - low) / span
        index = int(np.argmin(np.linalg.norm(scaled, axis=1)))
        return self._items[index], points[index]


class ObjectiveNormalizer:
    """Running min-max normalizer over observed objective vectors.

    ParEGO scalarization and GP fitting both want objectives on a shared
    [0, 1] scale; the normalizer tracks the observed range so far (ignoring
    non-finite entries) and maps new vectors into it.
    """

    def __init__(self, num_objectives: int):
        self.num_objectives = num_objectives
        self._low = np.full(num_objectives, np.inf)
        self._high = np.full(num_objectives, -np.inf)

    @property
    def ready(self) -> bool:
        return bool(np.all(np.isfinite(self._low)) and np.all(self._high > -np.inf))

    def observe(self, objectives: Sequence[float]) -> None:
        point = np.asarray(objectives, dtype=float)
        finite = np.isfinite(point)
        self._low[finite] = np.minimum(self._low[finite], point[finite])
        self._high[finite] = np.maximum(self._high[finite], point[finite])

    def transform(self, objectives: Sequence[float]) -> np.ndarray:
        """Map into [0, 1] per the observed range; infinities clamp to 2.0."""
        point = np.asarray(objectives, dtype=float)
        span = np.where(self._high > self._low, self._high - self._low, 1.0)
        low = np.where(np.isfinite(self._low), self._low, 0.0)
        scaled = (point - low) / span
        scaled = np.where(np.isfinite(point), scaled, 2.0)
        return np.clip(scaled, 0.0, 2.0)
