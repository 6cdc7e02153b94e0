"""Tree-structured Parzen Estimator (TPE) sampler.

BOHB's model component is a TPE, not a GP: observations are split into a
*good* quantile and the rest, two kernel-density estimates l(x) and g(x)
are fit per dimension, and candidates maximizing l(x)/g(x) are proposed.
This implementation works over the ``[0, 1]^d`` ordinal encodings of a
:class:`~repro.hw.space.DiscreteDesignSpace` with per-dimension Gaussian
kernels (bandwidth by Scott's rule, floored), making the MOBOHB baseline's
model faithful to the original algorithm while remaining dependency-free.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SurrogateError
from repro.hw.space import DiscreteDesignSpace
from repro.utils.rng import SeedLike, as_generator

_MIN_BANDWIDTH = 0.05
#: the share of finite observations that makes the good set
GAMMA = 0.25
#: candidates drawn from l(x) per suggestion
NUM_CANDIDATES = 64


class ParzenEstimator:
    """A per-dimension Gaussian KDE over [0, 1]^d points."""

    def __init__(self, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] < 1:
            raise SurrogateError("ParzenEstimator needs at least one point")
        self.points = points
        n, d = points.shape
        # Scott's rule per dimension, floored to stay usable for tiny n
        stds = points.std(axis=0)
        self.bandwidths = np.maximum(
            stds * n ** (-1.0 / (d + 4)), _MIN_BANDWIDTH
        )

    def log_density(self, queries: np.ndarray) -> np.ndarray:
        """Mean-of-kernels log density at each query row."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        # (q, n, d) standardized distances
        z = (queries[:, None, :] - self.points[None, :, :]) / self.bandwidths
        log_kernel = -0.5 * np.sum(z**2, axis=2) - np.sum(
            np.log(self.bandwidths * np.sqrt(2 * np.pi))
        )
        # log-mean-exp over the n kernels
        max_log = log_kernel.max(axis=1, keepdims=True)
        return (
            max_log.squeeze(1)
            + np.log(np.mean(np.exp(log_kernel - max_log), axis=1))
        )

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw points: pick a kernel, add its bandwidth noise, clip."""
        indices = rng.integers(0, self.points.shape[0], size=count)
        noise = rng.standard_normal((count, self.points.shape[1]))
        draws = self.points[indices] + noise * self.bandwidths
        return np.clip(draws, 0.0, 1.0)


class TPESampler:
    """Good/bad-split TPE over a discrete design space."""

    def __init__(
        self,
        space: DiscreteDesignSpace,
        min_observations: int = 8,
        seed: SeedLike = None,
    ):
        self.space = space
        self.min_observations = min_observations
        self.rng = as_generator(seed)

    def split(
        self, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Indices of the good quantile and the rest (finite scores only)."""
        scores = np.asarray(scores, dtype=float)
        finite = np.flatnonzero(np.isfinite(scores))
        if finite.size < 2:
            return finite, np.array([], dtype=int)
        order = finite[np.argsort(scores[finite])]
        n_good = max(1, int(np.ceil(GAMMA * order.size)))
        return order[:n_good], order[n_good:]

    def suggest(
        self,
        configs: Sequence,
        scores: np.ndarray,
        count: int = 1,
    ) -> List:
        """Propose ``count`` configurations maximizing l(x)/g(x).

        Falls back to uniform sampling until ``min_observations`` finite
        scores exist (or the bad set is empty).
        """
        scores = np.asarray(scores, dtype=float)
        finite_count = int(np.isfinite(scores).sum())
        if finite_count < self.min_observations:
            return [self.space.sample(self.rng) for _ in range(count)]
        good_idx, bad_idx = self.split(scores)
        if good_idx.size == 0 or bad_idx.size == 0:
            return [self.space.sample(self.rng) for _ in range(count)]
        encoded = np.vstack([self.space.encode(c) for c in configs])
        good = ParzenEstimator(encoded[good_idx])
        bad = ParzenEstimator(encoded[bad_idx])
        suggestions: List = []
        for _ in range(count):
            candidates = good.sample(NUM_CANDIDATES, self.rng)
            ei_proxy = good.log_density(candidates) - bad.log_density(candidates)
            best = candidates[int(np.argmax(ei_proxy))]
            suggestions.append(self.space.decode(best))
        return suggestions
