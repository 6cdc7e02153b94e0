"""A multi-objective quality indicator beside hypervolume.

Hypervolume (the paper's metric) is reference-point sensitive; Fig. 7's
records pair it with **IGD** (inverted generational distance): the mean
distance from reference-front points to the achieved front, which
measures convergence *and* coverage.

It follows the minimization convention and operates on raw objective
matrices (normalize first when units differ).
"""

from __future__ import annotations

import numpy as np


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


def inverted_generational_distance(
    achieved: np.ndarray, reference: np.ndarray
) -> float:
    """IGD: mean distance from reference points to the achieved front."""
    achieved = _clean(achieved)
    reference = _clean(reference)
    if reference.shape[0] == 0:
        raise ValueError("reference front must contain finite points")
    return float(_pairwise_min_distances(reference, achieved).mean())
