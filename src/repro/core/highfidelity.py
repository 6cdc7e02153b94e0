"""The high-fidelity surrogate update rule (Section 3.2, Steps 1-4).

After each MOBO iteration evaluates a batch of N hardware configurations,
only a *high-fidelity subset* refits the GP surrogate:

1. collapse each configuration's normalized objective vector into the
   fidelity scalar ``v_ParEGO`` (Eq. 1, rho = 0.2, importance weights W),
2. measure ``d = | v_ParEGO - v_ParEGO^Best |`` against the best scalar
   seen so far,
3. admit configurations with ``d <= UUL`` and append their ``d`` values to
   the distance archive ``D_dist``,
4. recompute ``UUL`` as the 95th percentile of ``D_dist``.

UUL tends to shrink over iterations, tightening selection toward
exploitation — exactly the behaviour the paper describes.  The alternative
**champion update** (used by the Fig. 10 ablations and the HASCO-like
baseline) admits only the single best configuration of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.optim.scalarize import DEFAULT_RHO, parego_scalar, uniform_weights

DEFAULT_UUL_PERCENTILE = 95.0


@dataclass
class HighFidelitySelector:
    """Stateful implementation of the UUL update rule."""

    num_objectives: int
    weights: Optional[np.ndarray] = None
    rho: float = DEFAULT_RHO
    percentile: float = DEFAULT_UUL_PERCENTILE
    _best_scalar: float = field(default=float("inf"), init=False)
    _distance_archive: List[float] = field(default_factory=list, init=False)
    _uul: float = field(default=float("inf"), init=False)

    def __post_init__(self) -> None:
        if self.weights is None:
            self.weights = uniform_weights(self.num_objectives)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.num_objectives,):
            raise ValueError(
                f"weights shape {self.weights.shape} != ({self.num_objectives},)"
            )
        if not 0 < self.percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {self.percentile}")

    @property
    def uul(self) -> float:
        """Current Upper Update Limit."""
        return self._uul

    @property
    def best_scalar(self) -> float:
        return self._best_scalar

    def fidelity_scalars(self, normalized_objectives: np.ndarray) -> np.ndarray:
        """Step 1: v_ParEGO per batch member (rows must be normalized)."""
        matrix = np.atleast_2d(np.asarray(normalized_objectives, dtype=float))
        return np.array(
            [parego_scalar(row, self.weights, self.rho) for row in matrix]
        )

    def select(self, normalized_objectives: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Steps 1-4 for one batch.

        Returns ``(selected_mask, scalars)``.  On the very first batch (no
        UUL yet) every finite-scalar member is admitted, seeding the
        distance archive.
        """
        scalars = self.fidelity_scalars(normalized_objectives)
        finite = np.isfinite(scalars)
        if finite.any():
            batch_best = float(scalars[finite].min())
            self._best_scalar = min(self._best_scalar, batch_best)
        distances = np.abs(scalars - self._best_scalar)

        if np.isinf(self._uul):
            selected = finite.copy()
        else:
            selected = finite & (distances <= self._uul)
            if not selected.any() and finite.any():
                # never starve the surrogate: admit the batch champion
                champion = int(np.argmin(np.where(finite, scalars, np.inf)))
                selected[champion] = True

        self._distance_archive.extend(float(d) for d in distances[selected])
        if self._distance_archive:
            self._uul = float(
                np.percentile(np.array(self._distance_archive), self.percentile)
            )
        return selected, scalars


@dataclass
class ChampionSelector:
    """Vanilla update rule: only the batch's best scalar is admitted."""

    num_objectives: int
    weights: Optional[np.ndarray] = None
    rho: float = DEFAULT_RHO

    def __post_init__(self) -> None:
        if self.weights is None:
            self.weights = uniform_weights(self.num_objectives)
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def uul(self) -> float:
        return 0.0

    def fidelity_scalars(self, normalized_objectives: np.ndarray) -> np.ndarray:
        matrix = np.atleast_2d(np.asarray(normalized_objectives, dtype=float))
        return np.array(
            [parego_scalar(row, self.weights, self.rho) for row in matrix]
        )

    def select(self, normalized_objectives: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        scalars = self.fidelity_scalars(normalized_objectives)
        selected = np.zeros(scalars.shape[0], dtype=bool)
        finite = np.isfinite(scalars)
        if finite.any():
            champion = int(np.argmin(np.where(finite, scalars, np.inf)))
            selected[champion] = True
        return selected, scalars
