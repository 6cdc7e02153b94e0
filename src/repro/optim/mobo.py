"""Multi-objective Bayesian optimization batch sampler (qParEGO style).

Section 3.2: "we sample a batch of N hardware candidates.  Each HW is
sampled with an acquisition function that balances exploration and
exploitation".  This module implements that step:

1. normalize the training objectives (whatever subset the high-fidelity
   update rule admitted) to [0, 1],
2. fit GP hyperparameters once per iteration on a uniform scalarization
   (analytic-gradient marginal likelihood),
3. draw one candidate pool of random grid-index rows plus mutations of
   incumbent Pareto members and encode it once,
4. for each of the N batch slots, draw a random ParEGO weight vector,
   scalarize the training objectives, and maximize Expected Improvement
   over the pool, masking out already-selected candidates,
5. de-duplicate against observed and already-selected configurations.

Random weight vectors give the batch its diversity (each slot optimizes a
different trade-off direction), the EI gives each slot its exploration/
exploitation balance.

The heavy math is structure-of-arrays NumPy over the whole pool: the
kernel Cholesky of the shared fit is reused by every slot's scalarized
GP, the pool cross-kernel / posterior variance are computed once, and EI
is evaluated on the full ``(slots, pool)`` matrix.  Configs are built only
for the pool entries a slot picks.  ``tests/optim/outer_loop_oracle.py``
keeps the slot-by-slot path through plain
:class:`~repro.optim.gp.GaussianProcess` fit/predict calls, and
``tests/optim/test_vectorized_outer_loop.py`` holds the two bit-identical
under fixed seeds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SurrogateError
from repro.hw.space import DiscreteDesignSpace
from repro.obs.trace import NULL_TRACER
from repro.optim.acquisition import expected_improvement
from repro.optim.gp import GaussianProcess, GPHyperparameters
from repro.optim.scalarize import parego_scalars, sample_weight_vector, uniform_weights
from repro.utils.rng import SeedLike, as_generator


class MOBOSampler:
    """Batched hardware sampler guided by a GP surrogate."""

    def __init__(
        self,
        space: DiscreteDesignSpace,
        num_objectives: int,
        seed: SeedLike = None,
        kernel: str = "matern52",
        rho: float = 0.2,
        pool_size: int = 512,
        min_observations: int = 8,
    ):
        self.space = space
        self.num_objectives = num_objectives
        self.rng = as_generator(seed)
        self.kernel = kernel
        self.rho = rho
        self.pool_size = pool_size
        self.min_observations = min_observations
        self._shared_hyper: Optional[GPHyperparameters] = None
        #: span tracer; a traced co-optimizer installs its own at run start
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------ pools
    def _candidate_pool(
        self,
        exclude_keys: Set[Tuple],
        incumbents: Sequence,
    ) -> Tuple[np.ndarray, List]:
        """Random grid-index rows + local mutations of incumbents, de-duplicated.

        Drawn once per :meth:`suggest_batch` call (every slot selects from
        the same pool).  The random part samples grid-index rows in
        batched generator calls and stays rows: a config is built only for
        a row a slot picks.  Pool entry ``i`` is ``rows[i]`` for
        ``i < len(rows)``, then the mutants in order.
        """
        rows: List[List[int]] = []
        keys = set(exclude_keys)
        attempts = 0
        target_random = self.pool_size
        max_attempts = 20 * target_random
        while len(rows) < target_random and attempts < max_attempts:
            need = min(target_random - len(rows), max_attempts - attempts)
            index_rows = self.space.sample_indices(need, self.rng)
            attempts += need
            for row in index_rows.tolist():
                key = self.space.key_from_indices(row)
                if key not in keys:
                    keys.add(key)
                    rows.append(row)
        mutants: List = []
        for incumbent in incumbents:
            for _ in range(4):
                candidate = self.space.mutate(incumbent, self.rng, num_moves=1)
                key = self.space.config_key(candidate)
                if key not in keys:
                    keys.add(key)
                    mutants.append(candidate)
        index_rows = np.array(rows, dtype=np.int64).reshape(
            len(rows), self.space.num_dimensions
        )
        return index_rows, mutants

    # ---------------------------------------------------------------- suggest
    def suggest_batch(
        self,
        train_configs: Sequence,
        train_objectives: np.ndarray,
        batch_size: int,
        incumbents: Sequence = (),
    ) -> List:
        """Propose ``batch_size`` new configurations.

        Parameters
        ----------
        train_configs / train_objectives:
            The (high-fidelity) surrogate training set; objectives must be
            normalized to a shared scale and finite.
        incumbents:
            Current Pareto-front configurations, used to bias part of the
            candidate pool toward local refinement.
        """
        observed_keys = {self.space.config_key(c) for c in train_configs}
        if len(train_configs) < self.min_observations:
            return self._random_batch(batch_size, observed_keys)

        x_train = self.space.encode_batch(train_configs)
        y_train = np.asarray(train_objectives, dtype=float)
        if y_train.ndim != 2 or y_train.shape[1] != self.num_objectives:
            raise ValueError(
                f"expected objectives of shape (n, {self.num_objectives}), "
                f"got {y_train.shape}"
            )

        # one marginal-likelihood optimization per iteration, shared across slots
        with self.tracer.span("gp_fit", train_size=len(train_configs)):
            uniform_scalar = parego_scalars(
                y_train, uniform_weights(self.num_objectives), self.rho
            )
            shared_gp = GaussianProcess(self.kernel)
            shared_gp.fit(
                x_train,
                uniform_scalar,
                seed=int(self.rng.integers(0, 2**31)),
            )
            self._shared_hyper = shared_gp.hyper

        # one pool per iteration, encoded once; every slot selects from it
        with self.tracer.span("candidate_pool"):
            rows, mutants = self._candidate_pool(observed_keys, incumbents)
        batch: List = []
        pool_size = len(rows) + len(mutants)
        if pool_size:
            x_pool = np.vstack(
                [self.space.encode_indices(rows), self.space.encode_batch(mutants)]
            )
            slots = min(batch_size, pool_size)
            with self.tracer.span("acquisition", slots=slots, pool=pool_size):
                chosen = self._select_vectorized(
                    shared_gp.cholesky_factor(), x_pool, y_train, slots
                )
            batch = [
                self.space.config_from_indices(rows[index])
                if index < len(rows)
                else mutants[index - len(rows)]
                for index in chosen
            ]
        # top up with randoms if the pool could not fill the batch
        if len(batch) < batch_size:
            batch_keys = {self.space.config_key(c) for c in batch}
            batch.extend(
                self._random_batch(
                    batch_size - len(batch), observed_keys | batch_keys
                )
            )
        return batch

    # ----------------------------------------------------- slot acquisition
    def _select_vectorized(
        self,
        factor,
        x_pool: np.ndarray,
        y_train: np.ndarray,
        slots: int,
    ) -> List[int]:
        """SoA acquisition: all slots' EI over the pool in matrix form.

        Shares one Cholesky factor, one pool cross-kernel, and one
        posterior-variance computation across the slots; only the
        scalarization-dependent pieces (alpha solve, posterior mean, y
        scaling) run per slot, each a cheap :math:`O(n^2)` /
        :math:`O(n \\cdot |pool|)` operation.
        """
        hyper = factor.hyper
        chol = factor.chol
        weights = [
            sample_weight_vector(self.num_objectives, self.rng)
            for _ in range(slots)
        ]
        # pool posterior pieces shared by every slot (same X, same hyper)
        kernel = GaussianProcess(self.kernel).kernel
        k_star = kernel(x_pool, factor.x, hyper.lengthscales, hyper.variance)
        v = np.linalg.solve(chol, k_star.T)
        var = np.maximum(hyper.variance - np.sum(v**2, axis=0), 1e-12)
        sqrt_var = np.sqrt(var)

        means = np.empty((slots, x_pool.shape[0]))
        stds = np.empty_like(means)
        best = np.empty(slots)
        for k, w in enumerate(weights):
            scalar = parego_scalars(y_train, w, self.rho)
            if not np.all(np.isfinite(scalar)):
                raise SurrogateError("GP training data must be finite")
            y_mean = float(scalar.mean())
            y_sd = float(scalar.std()) if scalar.std() > 1e-12 else 1.0
            alpha = np.linalg.solve(
                chol.T, np.linalg.solve(chol, (scalar - y_mean) / y_sd)
            )
            means[k] = (k_star @ alpha) * y_sd + y_mean
            stds[k] = sqrt_var * y_sd
            best[k] = float(scalar.min())
        ei = expected_improvement(means, stds, best=best[:, None])
        return self._mask_argmax(ei)

    @staticmethod
    def _mask_argmax(ei: np.ndarray) -> List[int]:
        """Sequential per-slot argmax, masking already-selected candidates."""
        chosen: List[int] = []
        for row in ei:
            if chosen:
                row = row.copy()
                row[chosen] = -np.inf
            chosen.append(int(np.argmax(row)))
        return chosen

    def _random_batch(self, count: int, exclude_keys: Set[Tuple]) -> List:
        batch: List = []
        keys = set(exclude_keys)
        attempts = 0
        while len(batch) < count and attempts < max(1000, 100 * count):
            candidate = self.space.sample(self.rng)
            key = self.space.config_key(candidate)
            if key not in keys:
                keys.add(key)
                batch.append(candidate)
            attempts += 1
        return batch
