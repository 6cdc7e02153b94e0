"""Objective scalarization: ParEGO / augmented Tchebycheff.

Two uses in UNICO (Section 3.2):

1. the acquisition layer scalarizes the objective space with a *random*
   weight vector per batch candidate (qParEGO batch diversity), and
2. the high-fidelity update rule computes the fidelity scalar

   ``v_ParEGO = max_j(w_j * y_j) + rho * Y^T W``  (Eq. 1, rho = 0.2)

   over *normalized* objectives with fixed importance weights.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator

DEFAULT_RHO = 0.2


def _validated_weights(weights: Sequence[float], num_objectives: int) -> np.ndarray:
    """Shared weight validation of Eq. (1): non-negative, summing to 1."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (num_objectives,):
        raise ValueError(
            f"objectives ({num_objectives},) vs weights {w.shape}"
        )
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"weights must sum to 1, got {total}")
    return w


def parego_scalars(
    objective_matrix: np.ndarray,
    weights: Sequence[float],
    rho: float = DEFAULT_RHO,
) -> np.ndarray:
    """Vectorized Eq. (1) over the rows of ``objective_matrix``.

    One elementwise ``max`` plus one ``einsum`` row reduction over the whole
    matrix — no per-row Python.  ``einsum`` (not BLAS ``@``) keeps each
    row's reduction order independent of the batch size, so a row's scalar
    is bit-identical whether it is computed alone or inside a pool matrix
    (the property the scalar/vectorized acquisition parity tests rely on).
    Rows with any non-finite objective scalarize to ``inf``, exactly like
    :func:`parego_scalar`.
    """
    matrix = np.atleast_2d(np.asarray(objective_matrix, dtype=float))
    w = _validated_weights(weights, matrix.shape[1])
    if matrix.shape[0] == 0:
        return np.zeros(0)
    values = np.max(w * matrix, axis=1) + rho * np.einsum("ij,j->i", matrix, w)
    values[~np.all(np.isfinite(matrix), axis=1)] = np.inf
    return values


def parego_scalar(
    objectives: Sequence[float],
    weights: Sequence[float],
    rho: float = DEFAULT_RHO,
) -> float:
    """Eq. (1): augmented Tchebycheff fidelity scalar (lower is better).

    ``objectives`` should already be normalized to a shared scale; weights
    must be non-negative and sum to 1.  Delegates to the vectorized kernel
    so the scalar and batched paths are bit-identical by construction.
    """
    y = np.asarray(objectives, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"objectives must be a vector, got shape {y.shape}")
    return float(parego_scalars(y[None, :], weights, rho)[0])


def sample_weight_vector(
    num_objectives: int, seed: SeedLike = None
) -> np.ndarray:
    """Uniform Dirichlet(1) weights — the ParEGO random scalarization."""
    rng = as_generator(seed)
    raw = rng.dirichlet(np.ones(num_objectives))
    return raw


def uniform_weights(num_objectives: int) -> np.ndarray:
    """Equal importance weights."""
    return np.full(num_objectives, 1.0 / num_objectives)
