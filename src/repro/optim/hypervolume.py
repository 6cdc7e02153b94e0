"""Hypervolume computation (minimization convention).

The paper reports *hypervolume difference* curves (Figs. 7, 10): the gap
between a reference front's hypervolume and the hypervolume achieved so far.
We provide:

* exact hypervolume for 1D/2D via sweep, and for any dimension via the
  WFG-style inclusion-exclusion recursion (fine for the front sizes here),
* :func:`reference_point_from`, the reference point those curves share.

Points dominating the reference point contribute; anything outside it is
clipped away.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.optim.pareto import pareto_front


def _clip_to_reference(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Drop points not strictly better than the reference in every axis."""
    mask = np.all(points < reference, axis=1)
    return points[mask]


def _hv_2d(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact 2D hypervolume by sweeping the staircase."""
    order = np.argsort(points[:, 0])
    sorted_points = points[order]
    total = 0.0
    prev_y = reference[1]
    for x, y in sorted_points:
        if y < prev_y:
            total += (reference[0] - x) * (prev_y - y)
            prev_y = y
    return float(total)


def _hv_recursive(points: np.ndarray, reference: np.ndarray) -> float:
    """WFG-style exclusive-volume recursion (exact, any dimension)."""
    points = pareto_front(points)
    if points.shape[0] == 0:
        return 0.0
    if points.shape[1] == 1:
        return float(reference[0] - points[:, 0].min())
    if points.shape[1] == 2:
        return _hv_2d(points, reference)
    # sort by last objective, peel one point at a time
    order = np.argsort(points[:, -1])[::-1]
    points = points[order]
    total = 0.0
    for i in range(points.shape[0]):
        point = points[i]
        # exclusive contribution of `point` against the better-in-last-axis rest
        inclusive = float(np.prod(reference - point))
        rest = points[i + 1 :]
        if rest.shape[0]:
            limited = np.maximum(rest, point)
            total += inclusive - _hv_recursive(limited, reference)
        else:
            total += inclusive
    return total


def hypervolume(points: np.ndarray, reference: Sequence[float]) -> float:
    """Exact hypervolume of ``points`` w.r.t. ``reference`` (minimization)."""
    points = np.asarray(points, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if points.size == 0:
        return 0.0
    if points.ndim != 2 or points.shape[1] != reference.shape[0]:
        raise ValueError(
            f"points {points.shape} incompatible with reference {reference.shape}"
        )
    finite = np.all(np.isfinite(points), axis=1)
    points = _clip_to_reference(points[finite], reference)
    if points.shape[0] == 0:
        return 0.0
    return _hv_recursive(points, reference)


#: how far beyond the worst observation a derived reference sits: a pad
#: of ``REFERENCE_MARGIN - 1`` times the worst value's magnitude
REFERENCE_MARGIN = 1.1


def reference_point_from(points: np.ndarray) -> np.ndarray:
    """A reference point slightly beyond the worst finite observation.

    The pad is *additive* on the magnitude of the worst value,
    ``worst + (REFERENCE_MARGIN - 1) * max(|worst|, 1)``, so the reference always
    moves outward (strictly worse, under minimization) regardless of
    sign.  A multiplicative ``worst * margin`` would move *inward* on
    axes whose worst observation is negative, silently discarding those
    points from every hypervolume computed against the reference.
    """
    points = np.asarray(points, dtype=float)
    finite = np.all(np.isfinite(points), axis=1)
    if not finite.any():
        raise ValueError("no finite points to derive a reference from")
    worst = points[finite].max(axis=0)
    pad = (REFERENCE_MARGIN - 1.0) * np.maximum(np.abs(worst), 1.0)
    return worst + pad + 1e-9
