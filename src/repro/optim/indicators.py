"""Multi-objective quality indicators beyond hypervolume.

Hypervolume (the paper's metric) is reference-point sensitive; evaluation
practice pairs it with complementary indicators, all provided here for the
experiment records and the extension studies:

* **IGD** (inverted generational distance) — mean distance from reference-
  front points to the achieved front; measures convergence *and* coverage.
* **GD** (generational distance) — mean distance from achieved points to
  the reference front; pure convergence.
* **spacing** — standard deviation of nearest-neighbor gaps along the
  front; measures distribution uniformity.
* **coverage** (Zitzler's C-metric) — fraction of B's points weakly
  dominated by some point of A; a direct pairwise comparison.

All follow the minimization convention and operate on raw objective
matrices (normalize first when units differ).
"""

from __future__ import annotations

import numpy as np

from repro.optim.pareto import dominates


def _pairwise_min_distances(from_points: np.ndarray, to_points: np.ndarray) -> np.ndarray:
    """Min Euclidean distance from each row of ``from_points`` to ``to_points``."""
    if to_points.shape[0] == 0:
        return np.full(from_points.shape[0], np.inf)
    diff = from_points[:, None, :] - to_points[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2)).min(axis=1)


def _clean(points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    finite = np.all(np.isfinite(points), axis=1)
    return points[finite]


def generational_distance(achieved: np.ndarray, reference: np.ndarray) -> float:
    """GD: mean distance from achieved points to the reference front."""
    achieved = _clean(achieved)
    reference = _clean(reference)
    if achieved.shape[0] == 0:
        return float("inf")
    return float(_pairwise_min_distances(achieved, reference).mean())


def inverted_generational_distance(
    achieved: np.ndarray, reference: np.ndarray
) -> float:
    """IGD: mean distance from reference points to the achieved front."""
    achieved = _clean(achieved)
    reference = _clean(reference)
    if reference.shape[0] == 0:
        raise ValueError("reference front must contain finite points")
    return float(_pairwise_min_distances(reference, achieved).mean())


def spacing(front: np.ndarray) -> float:
    """Schott's spacing: std of nearest-neighbor distances (0 = uniform)."""
    front = _clean(front)
    n = front.shape[0]
    if n < 2:
        return 0.0
    diff = front[:, None, :] - front[None, :, :]
    distance = np.sqrt(np.sum(diff**2, axis=2))
    distance[np.diag_indices_from(distance)] = np.inf
    nearest = distance.min(axis=1)
    return float(nearest.std())


def coverage(front_a: np.ndarray, front_b: np.ndarray) -> float:
    """C(A, B): fraction of B weakly dominated by at least one point of A."""
    front_a = _clean(front_a)
    front_b = _clean(front_b)
    if front_b.shape[0] == 0:
        return 0.0
    covered = 0
    for b in front_b:
        for a in front_a:
            if dominates(a, b) or np.array_equal(a, b):
                covered += 1
                break
    return covered / front_b.shape[0]


def epsilon_indicator(achieved: np.ndarray, reference: np.ndarray) -> float:
    """Additive epsilon: smallest shift making ``achieved`` weakly dominate
    every reference point (0 = achieved matches/beats the reference)."""
    achieved = _clean(achieved)
    reference = _clean(reference)
    if achieved.shape[0] == 0:
        return float("inf")
    # for each reference point: the best achievable max-coordinate excess
    diff = achieved[:, None, :] - reference[None, :, :]
    per_pair = diff.max(axis=2)  # max over objectives
    per_reference = per_pair.min(axis=0)  # best achieved point per reference
    return float(max(0.0, per_reference.max()))
