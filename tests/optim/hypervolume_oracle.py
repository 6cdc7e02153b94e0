"""A Monte-Carlo hypervolume estimate: the oracle the exact code in
``repro.optim.hypervolume`` is cross-checked against."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def hypervolume_monte_carlo(
    points: np.ndarray,
    reference: Sequence[float],
    num_samples: int = 200_000,
    seed: int = 0,
) -> float:
    """Sample uniformly in the box ``[min(points), reference]`` and scale
    the box volume by the dominated fraction.  Non-finite points and points
    not strictly better than the reference in every axis are dropped."""
    points = np.asarray(points, dtype=float)
    reference = np.asarray(reference, dtype=float)
    finite = np.all(np.isfinite(points), axis=1)
    points = points[finite]
    points = points[np.all(points < reference, axis=1)]
    if points.shape[0] == 0:
        return 0.0
    low = points.min(axis=0)
    box_volume = float(np.prod(reference - low))
    if box_volume <= 0:
        return 0.0
    rng = np.random.default_rng(seed)
    samples = rng.uniform(low, reference, size=(num_samples, reference.shape[0]))
    dominated = np.zeros(num_samples, dtype=bool)
    for point in points:
        dominated |= np.all(samples >= point, axis=1)
    return box_volume * float(dominated.mean())
