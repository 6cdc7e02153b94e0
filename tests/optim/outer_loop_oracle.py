"""The MOBO outer loop's hot paths as they were written before they were
made cheap, and the reference paths ``src/`` no longer carries: the
oracles ``test_outer_loop_oracle.py`` and ``test_vectorized_outer_loop.py``
hold ``src/`` to.

* :meth:`ReferenceGaussianProcess._neg_log_marginal_and_grad` — the NLL and
  its analytic gradient built from NumPy temporaries, with both solves
  through ``scipy.linalg.cho_solve``.
* :meth:`ReferenceGaussianProcess._neg_log_marginal` and
  ``fit(use_gradient=False)`` — the finite-difference marginal-likelihood
  fit the analytic gradient replaced.
* ``ReferenceGaussianProcess.fit(hyper=...)`` — the fit that takes its
  hyperparameters as given, which the slot-by-slot path refits each
  slot's target with.
* :func:`factorize` — the kernel Cholesky built from scratch for
  ``(x, hyper)``, as ``GaussianProcess.fit`` builds it.
* :class:`ReferenceMOBOSampler` — ``suggest_batch`` re-factorizing the
  shared kernel with :func:`factorize`, a candidate pool that builds one
  config per random row and encodes them with ``encode_batch``, mutations
  clipped with ``np.clip`` (:func:`reference_mutate`), and the slot-by-slot
  acquisition (``vectorized=False``).
* :func:`terminal_value`, :func:`relative_auc_score` and
  :func:`select_survivors_detailed` — the per-curve and per-id-dict forms
  of the MSH bookkeeping ``repro.optim.sh`` does on arrays.

``src/`` keeps one of each; these copies exist only as references.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
from scipy import linalg as scipy_linalg
from scipy import optimize

from repro.errors import SearchBudgetError
from repro.optim.acquisition import expected_improvement
from repro.optim.gp import (
    _JITTER,
    _NOISE_FLOOR,
    CholeskyFactor,
    GaussianProcess,
    GPHyperparameters,
    matern52_kernel,
)
from repro.optim.mobo import MOBOSampler
from repro.optim.scalarize import parego_scalars, sample_weight_vector, uniform_weights
from repro.utils.rng import as_generator


class ReferenceGaussianProcess(GaussianProcess):
    """:class:`GaussianProcess` with the pre-change objectives."""

    def _neg_log_marginal(self, log_params, x, y) -> float:
        d = x.shape[1]
        lengthscales = np.exp(log_params[:d])
        variance = np.exp(log_params[d])
        noise = np.exp(log_params[d + 1]) + _NOISE_FLOOR
        try:
            k = matern52_kernel(x, x, lengthscales, variance)
            k[np.diag_indices_from(k)] += noise + _JITTER
            chol = np.linalg.cholesky(k)
        except np.linalg.LinAlgError:
            return 1e12
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
        nll = (
            0.5 * float(y @ alpha)
            + float(np.sum(np.log(np.diag(chol))))
            + 0.5 * len(y) * np.log(2 * np.pi)
        )
        return nll if np.isfinite(nll) else 1e12

    def _neg_log_marginal_and_grad(self, log_params, x, y, sq_diffs=None):
        d = x.shape[1]
        lengthscales = np.exp(log_params[:d])
        variance = np.exp(log_params[d])
        noise = np.exp(log_params[d + 1]) + _NOISE_FLOOR
        if sq_diffs is None:
            sq_diffs = (x[:, None, :] - x[None, :, :]) ** 2
        inv_ls_sq = 1.0 / lengthscales**2
        sq_dist = sq_diffs @ inv_ls_sq
        dist = np.sqrt(sq_dist)
        sqrt5 = np.sqrt(5.0)
        decay = np.exp(-sqrt5 * dist)
        k_core = variance * (1.0 + sqrt5 * dist + (5.0 / 3.0) * sq_dist) * decay
        ls_coef = variance * (5.0 / 3.0) * (1.0 + sqrt5 * dist) * decay
        k = k_core.copy()
        k[np.diag_indices_from(k)] += noise + _JITTER
        zeros = np.zeros_like(log_params)
        try:
            chol = np.linalg.cholesky(k)
        except np.linalg.LinAlgError:
            return 1e12, zeros
        alpha = scipy_linalg.cho_solve((chol, True), y)
        nll = (
            0.5 * float(y @ alpha)
            + float(np.sum(np.log(np.diag(chol))))
            + 0.5 * len(y) * np.log(2 * np.pi)
        )
        if not np.isfinite(nll):
            return 1e12, zeros
        k_inv = scipy_linalg.cho_solve((chol, True), np.eye(len(y)))
        w = np.outer(alpha, alpha) - k_inv
        grad = np.empty_like(log_params)
        grad[:d] = -0.5 * np.einsum("ij,ijk->k", w * ls_coef, sq_diffs) * inv_ls_sq
        grad[d] = -0.5 * np.sum(w * k_core)
        grad[d + 1] = -0.5 * np.trace(w) * (noise - _NOISE_FLOOR)
        return nll, grad

    def fit(self, x, y, seed=0, use_gradient=True, hyper=None):
        """``use_gradient=False``: the finite-difference optimization;
        ``hyper``: no optimization, these hyperparameters."""
        if use_gradient and hyper is None:
            return super().fit(x, y, seed=seed)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        self._x = x
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) if y.std() > 1e-12 else 1.0
        y_std = (y - self._y_mean) / self._y_std
        if hyper is not None:
            self.hyper = GPHyperparameters(
                np.asarray(hyper.lengthscales, dtype=float),
                float(hyper.variance),
                float(hyper.noise),
            )
            self._finalize_fit(x, y_std)
            return self
        d = x.shape[1]
        initial = np.concatenate([np.log(np.full(d, 0.4)), [np.log(1.0)], [np.log(1e-3)]])
        best_params = initial
        if x.shape[0] >= 3:
            rng = np.random.default_rng(seed)
            best_nll = self._neg_log_marginal(initial, x, y_std)
            for start in (initial, initial + rng.normal(0.0, 0.7, size=initial.shape)):
                result = optimize.minimize(
                    self._neg_log_marginal,
                    start,
                    args=(x, y_std),
                    method="L-BFGS-B",
                    bounds=[(np.log(1e-2), np.log(10.0))] * d
                    + [(np.log(1e-3), np.log(50.0)), (np.log(1e-8), np.log(1.0))],
                    options={"maxiter": 60},
                )
                if result.fun < best_nll:
                    best_nll = result.fun
                    best_params = result.x
        self.hyper = GPHyperparameters(
            np.exp(best_params[:d]),
            float(np.exp(best_params[d])),
            float(np.exp(best_params[d + 1])) + _NOISE_FLOOR,
        )
        self._finalize_fit(x, y_std)
        return self


def reference_mutate(space, config, seed=None, num_moves=1, step=2):
    """``DiscreteDesignSpace.mutate`` clipping with ``np.clip``."""
    rng = as_generator(seed)
    assignment = space.from_config(config)
    move_dims = rng.choice(
        space.num_dimensions, size=min(num_moves, space.num_dimensions), replace=False
    )
    for dim_index in move_dims:
        dim = space.dimensions[int(dim_index)]
        current = dim.index_of(assignment[dim.name])
        offset = 0
        while offset == 0:
            offset = int(rng.integers(-step, step + 1))
        new_index = int(np.clip(current + offset, 0, len(dim) - 1))
        assignment[dim.name] = dim.choices[new_index]
    return space.to_config(assignment)


class ReferenceMOBOSampler(MOBOSampler):
    """:class:`MOBOSampler` as it was: a config per pool row, a second
    factorization per iteration, and the slot-by-slot path."""

    def __init__(self, *args, vectorized: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.vectorized = vectorized

    def _candidate_pool(self, exclude_keys: Set[Tuple], incumbents: Sequence) -> List:
        pool: List = []
        keys = set(exclude_keys)
        attempts = 0
        target_random = self.pool_size
        max_attempts = 20 * target_random
        while len(pool) < target_random and attempts < max_attempts:
            need = min(target_random - len(pool), max_attempts - attempts)
            index_rows = self.space.sample_indices(need, self.rng)
            attempts += need
            for row in index_rows:
                key = self.space.key_from_indices(row)
                if key not in keys:
                    keys.add(key)
                    pool.append(self.space.config_from_indices(row))
        for incumbent in incumbents:
            for _ in range(4):
                candidate = reference_mutate(self.space, incumbent, self.rng, num_moves=1)
                key = self.space.config_key(candidate)
                if key not in keys:
                    keys.add(key)
                    pool.append(candidate)
        return pool

    def suggest_batch(self, train_configs, train_objectives, batch_size, incumbents=()):
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
        uniform_scalar = parego_scalars(y_train, uniform_weights(self.num_objectives), self.rho)
        shared_gp = ReferenceGaussianProcess()
        shared_gp.fit(
            x_train, uniform_scalar, seed=int(self.rng.integers(0, 2**31))
        )
        self._shared_hyper = shared_gp.hyper
        pool = self._candidate_pool(observed_keys, incumbents)
        batch: List = []
        if pool:
            x_pool = self.space.encode_batch(pool)
            slots = min(batch_size, len(pool))
            factor = factorize(x_train, self._shared_hyper)
            select = self._select_vectorized if self.vectorized else self._select_reference
            chosen = select(factor, x_pool, y_train, slots)
            batch = [pool[index] for index in chosen]
        if len(batch) < batch_size:
            batch_keys = {self.space.config_key(c) for c in batch}
            batch.extend(self._random_batch(batch_size - len(batch), observed_keys | batch_keys))
        return batch

    def _select_reference(self, factor, x_pool, y_train, slots) -> List[int]:
        """Slot-by-slot scalar path: one GP refit + predict + EI per slot."""
        rows = []
        for _ in range(slots):
            w = sample_weight_vector(self.num_objectives, self.rng)
            scalar = parego_scalars(y_train, w, self.rho)
            gp = ReferenceGaussianProcess().fit(factor.x, scalar, hyper=factor.hyper)
            mean, std = gp.predict(x_pool)
            rows.append(expected_improvement(mean, std, best=float(scalar.min())))
        return self._mask_argmax(np.vstack(rows))


def factorize(x: np.ndarray, hyper: GPHyperparameters) -> CholeskyFactor:
    """``chol(K(x, x) + noise I)``, with the fit's fallback jitter bump."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k = matern52_kernel(x, x, hyper.lengthscales, hyper.variance)
    k[np.diag_indices_from(k)] += hyper.noise + _JITTER
    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        k[np.diag_indices_from(k)] += 1e-4
        chol = np.linalg.cholesky(k)
    return CholeskyFactor(x=x, hyper=hyper, chol=chol)


def terminal_value(curve: np.ndarray) -> float:
    """TV: the curve's last value; ``inf`` for an empty curve."""
    curve = np.asarray(curve, dtype=float)
    if curve.size == 0:
        return float("inf")
    return float(curve[-1])


def auc_score(curve: np.ndarray) -> float:
    """Trapezoid area between the finite values and the terminal-value line."""
    curve = np.asarray(curve, dtype=float)
    finite = curve[np.isfinite(curve)]
    if finite.size < 2:
        return 0.0
    heights = finite - finite[-1]
    return float(np.sum((heights[1:] + heights[:-1]) / 2.0))


def relative_auc_score(curve: np.ndarray) -> float:
    """:func:`auc_score` over the terminal value; raw when that is ``<= 0``."""
    curve = np.asarray(curve, dtype=float)
    finite = curve[np.isfinite(curve)]
    if finite.size < 2:
        return 0.0
    if finite[-1] <= 0:
        return auc_score(curve)
    return auc_score(curve) / finite[-1]


def select_survivors_detailed(
    candidate_ids: Sequence[int],
    tv_by_id: Dict[int, float],
    auc_by_id: Dict[int, float],
    keep: int,
    auc_promotions: int,
) -> Tuple[List[int], List[int]]:
    """MSH promotion over per-id dicts with ``sorted`` key functions:
    ``(survivors, promoted)``, the TV picks first, then the AUC ones."""
    ids = list(candidate_ids)
    if keep < 0 or auc_promotions < 0:
        raise SearchBudgetError("keep and auc_promotions must be non-negative")
    if auc_promotions > keep:
        raise SearchBudgetError(
            f"auc_promotions ({auc_promotions}) cannot exceed keep ({keep})"
        )
    if keep >= len(ids):
        return ids, []
    by_tv = sorted(ids, key=lambda i: (tv_by_id[i], i))
    tv_selected = by_tv[: keep - auc_promotions]
    selected_set = set(tv_selected)
    auc_selected: List[int] = []
    for candidate in sorted(ids, key=lambda i: (-auc_by_id[i], i)):
        if len(auc_selected) >= auc_promotions:
            break
        if candidate not in selected_set:
            auc_selected.append(candidate)
            selected_set.add(candidate)
    for candidate in by_tv:  # backfill when AUC could not supply enough
        if len(tv_selected) + len(auc_selected) >= keep:
            break
        if candidate not in selected_set:
            tv_selected.append(candidate)
            selected_set.add(candidate)
    return tv_selected + auc_selected, auc_selected
