"""DOSA-style differentiable one-loop mapping search.

Black-box inner tools (FlexTensor, GAMMA) only ever sample the mapping
space point by point.  With a trained
:class:`~repro.learned.model.LearnedCostModel` the space becomes
*differentiable*: tile sizes relax to continuous log2 coordinates,
:func:`~repro.learned.features.relaxed_features` provides the Jacobian
of the feature vector with respect to them, and gradient descent walks
the model's landscape directly — the "one-loop" search of DOSA, where
the same descent that tunes the mapping implicitly co-tunes against the
hardware configuration baked into the feature prefix.

Honesty contract (same discipline as the screening engine): the model
only ever *proposes*.  Every proposal is projected back to a legal
divisor-aligned :class:`~repro.mapping.gemm_mapping.GemmMapping` and
evaluated by the analytical engine through the standard
:class:`~repro.mapping.base.AnytimeMappingSearch` fold, so incumbents,
history and PPA numbers are exactly as trustworthy as any other tool's.
Without a model (none trained yet, or the engine has no
``learned_model``) the tool degrades to an honest mutation-based local
search rather than failing.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.errors import ReproError
from repro.learned.features import relaxed_features
from repro.learned.model import LearnedCostModel
from repro.mapping.base import AnytimeMappingSearch
from repro.mapping.gemm_mapping import (
    DIM_INDEX,
    LOOP_ORDERS,
    SPATIAL_CHOICES,
    UNROLL_CHOICES,
    GemmMapping,
    GemmMappingSpace,
)


class OneLoopMappingSearch(AnytimeMappingSearch):
    """Projected gradient descent over relaxed tiles against the model.

    Parameters
    ----------
    model:
        Trained learned cost model.  Defaults to the engine's
        ``learned_model`` attribute (a :class:`ScreeningPPAEngine`
        exposes the model it screens with), else ``None`` = fallback
        mutation search.
    gd_steps / lr:
        Descent steps and learning rate per proposal, in log2-tile space.
    jitter:
        Std of the Gaussian perturbation applied to the incumbent's
        log2 tiles before descending — restarts from slightly different
        basins across proposals.
    explore_prob:
        Probability of proposing a plain mutation instead of a descent,
        keeping coverage of the categorical axes the gradient cannot see.
    """

    name = "oneloop"

    def __init__(
        self,
        *args,
        model: Optional[LearnedCostModel] = None,
        gd_steps: int = 12,
        lr: float = 0.4,
        jitter: float = 0.25,
        explore_prob: float = 0.25,
        **kwargs,
    ):
        self.gd_steps = gd_steps
        self.lr = lr
        self.jitter = jitter
        self.explore_prob = explore_prob
        self._visited: Dict[str, Set[tuple]] = {}
        self.num_gradient_proposals = 0
        self.num_fallback_proposals = 0
        super().__init__(*args, **kwargs)
        if model is None:
            model = getattr(self.engine, "learned_model", None)
        self.model = model

    # ---------------------------------------------------------------- strategy
    def _pick_layer(self) -> str:
        """Weight layers by their share of incumbent network latency."""
        layer_name = self._pick_weighted_layer()
        if layer_name is None:  # degenerate weights: uniform
            layer_name = self.layer_names[
                int(self.rng.integers(0, len(self.layer_names)))
            ]
        return layer_name

    def _propose(self) -> Tuple[str, GemmMapping]:
        layer_name = self._pick_layer()
        space = self.spaces[layer_name]
        incumbent = self.best_layer_mapping[layer_name]
        candidate: Optional[GemmMapping] = None
        if self.model is not None and self.rng.random() >= self.explore_prob:
            try:
                candidate = self._descend(space, incumbent)
                self.num_gradient_proposals += 1
            except (AttributeError, TypeError, ValueError, ReproError):
                # foreign hw/mapping types or a stale model artifact:
                # degrade to the mutation fallback for this proposal
                candidate = None
        if candidate is None:
            candidate = space.mutate(incumbent, self.rng)
            self.num_fallback_proposals += 1
        visited = self._visited.setdefault(layer_name, set())
        attempts = 0
        while candidate.key() in visited and attempts < 4:
            candidate = space.mutate(candidate, self.rng)
            attempts += 1
        visited.add(candidate.key())
        return layer_name, candidate

    def _descend(
        self, space: GemmMappingSpace, incumbent: GemmMapping
    ) -> GemmMapping:
        """One restart of projected descent; returns the projected mapping."""
        grids = (
            np.asarray(space.tile_m_choices, dtype=np.float64),
            np.asarray(space.tile_n_choices, dtype=np.float64),
            np.asarray(space.tile_k_choices, dtype=np.float64),
        )
        lo = np.array([np.log2(grid.min()) for grid in grids])
        hi = np.array([np.log2(grid.max()) for grid in grids])
        start = np.log2(np.asarray(incumbent.tiles(), dtype=np.float64))
        start = np.clip(start + self.rng.normal(0.0, self.jitter, 3), lo, hi)

        # the gradient cannot see the categorical axes; score the incumbent's
        # choice against two random alternatives and descend under the best
        categorical = [(incumbent.loop_order, incumbent.spatial, incumbent.unroll)]
        for _ in range(2):
            categorical.append(
                (
                    LOOP_ORDERS[int(self.rng.integers(0, len(LOOP_ORDERS)))],
                    SPATIAL_CHOICES[
                        int(self.rng.integers(0, len(SPATIAL_CHOICES)))
                    ],
                    UNROLL_CHOICES[
                        int(self.rng.integers(0, len(UNROLL_CHOICES)))
                    ],
                )
            )

        best_score = float("inf")
        best: Optional[Tuple[np.ndarray, Tuple]] = None
        for order, spatial, unroll in categorical:
            spatial_mn = 1 if spatial == "mn" else 0
            inner_index = DIM_INDEX[order[2]]
            logs = start.copy()
            for _ in range(self.gd_steps):
                x, jac = relaxed_features(
                    self.hw, space.shape, logs, spatial_mn, unroll, inner_index
                )
                _score, grad_x = self.model.grad_objective(x, "latency")
                grad = jac.T @ grad_x
                if not np.all(np.isfinite(grad)) or np.linalg.norm(grad) < 1e-12:
                    break
                logs = np.clip(logs - self.lr * grad, lo, hi)
            x, _ = relaxed_features(
                self.hw, space.shape, logs, spatial_mn, unroll, inner_index
            )
            score = float(self.model.predict_objective(x.reshape(1, -1), "latency")[0][0])
            if score < best_score:
                best_score = score
                best = (logs, (order, spatial, unroll))

        logs, (order, spatial, unroll) = best
        tiles = [
            int(grid[int(np.argmin(np.abs(np.log2(grid) - value)))])
            for grid, value in zip(grids, logs)
        ]
        return GemmMapping(
            tile_m=tiles[0],
            tile_n=tiles[1],
            tile_k=tiles[2],
            loop_order=tuple(order),
            spatial=spatial,
            unroll=unroll,
        )


__all__ = ["OneLoopMappingSearch"]
