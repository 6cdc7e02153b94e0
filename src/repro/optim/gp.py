"""Gaussian-process regression (the MOBO surrogate), from scratch.

A standard zero-mean GP with ARD kernels, Cholesky solves, and marginal-
likelihood hyperparameter fitting via multi-start L-BFGS-B on log-scale
parameters.  Inputs are the ``[0, 1]^d`` ordinal encodings produced by the
hardware design spaces; outputs are normalized objective values.

Only what MOBO needs is implemented: ``fit`` and ``predict`` (mean/std).

Three outer-loop fast paths live here:

* hyperparameter fitting uses the *analytic* marginal-likelihood gradient,
  replacing L-BFGS-B's finite-difference probing — one (value, gradient)
  evaluation instead of ``d + 3`` value evaluations per optimizer step —
  and each evaluation works in a handful of reused ``n x n`` buffers and
  calls LAPACK's ``dpotrs`` directly;
* :meth:`GaussianProcess.cholesky_factor` exposes the kernel Cholesky as
  a reusable :class:`CholeskyFactor`, so the batch sampler's per-slot GPs
  (same X, same shared hyperparameters, different scalarized y) skip the
  :math:`O(n^3)` re-factorization — ``fit(..., factor=...)`` only
  standardizes y and runs two triangular solves;
* from ``_FORK_MIN_ROWS`` training rows up, each L-BFGS-B start after the
  first descends in a forked child on another CPU while the first
  descends here (:func:`_forking_pays` says when), and the outcomes are
  compared in start order, so the fit is the same bits either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize
from scipy.linalg import lapack

from repro.errors import SurrogateError

_JITTER = 1e-8
_SQRT5 = np.sqrt(5.0)
_LOG_2PI = np.log(2 * np.pi)


def rbf_kernel(
    x1: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray, variance: float
) -> np.ndarray:
    """ARD squared-exponential kernel matrix."""
    scaled1 = x1 / lengthscales
    scaled2 = x2 / lengthscales
    sq_dist = (
        np.sum(scaled1**2, axis=1)[:, None]
        + np.sum(scaled2**2, axis=1)[None, :]
        - 2.0 * scaled1 @ scaled2.T
    )
    return variance * np.exp(-0.5 * np.maximum(sq_dist, 0.0))


def matern52_kernel(
    x1: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray, variance: float
) -> np.ndarray:
    """ARD Matérn-5/2 kernel matrix."""
    scaled1 = x1 / lengthscales
    scaled2 = x2 / lengthscales
    sq_dist = (
        np.sum(scaled1**2, axis=1)[:, None]
        + np.sum(scaled2**2, axis=1)[None, :]
        - 2.0 * scaled1 @ scaled2.T
    )
    dist = np.sqrt(np.maximum(sq_dist, 0.0))
    sqrt5 = np.sqrt(5.0)
    return (
        variance
        * (1.0 + sqrt5 * dist + (5.0 / 3.0) * dist**2)
        * np.exp(-sqrt5 * dist)
    )


_KERNELS = {"rbf": rbf_kernel, "matern52": matern52_kernel}


@dataclass
class GPHyperparameters:
    lengthscales: np.ndarray
    variance: float
    noise: float


@dataclass(frozen=True)
class CholeskyFactor:
    """A reusable kernel factorization: ``chol(K(x, x) + noise I)``.

    The factor depends only on the training inputs and the
    hyperparameters, so every per-slot GP of one batch-sampling iteration
    (same X, shared hyperparameters, different scalarized y) can share a
    single factorization.
    """

    x: np.ndarray
    hyper: GPHyperparameters
    chol: np.ndarray


def _cho_solve(chol_f: np.ndarray, b: np.ndarray, overwrite_b: bool = False):
    """``scipy.linalg.cho_solve((chol, True), b)`` for a finite ``chol``.

    The same LAPACK ``dpotrs`` call ``cho_solve`` makes, without its
    wrapper; the caller has made the finiteness checks.  ``chol_f`` is the
    lower factor in Fortran order, so no call copies it.
    """
    solution, info = lapack.dpotrs(chol_f, b, lower=1, overwrite_b=overwrite_b)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return solution


#: the fewest training rows at which a later L-BFGS-B start pays for its
#: fork: read off a replay of ``local_outer``'s recorded fits (DESIGN.md §4t)
_FORK_MIN_ROWS = 64


def _forking_pays(rows: int) -> bool:
    """Whether :meth:`GaussianProcess.fit` runs its later starts in forked
    children: the fit is large enough to repay a fork, the process can
    fork, another CPU is there to take the child, and the process has no
    other thread.

    Threads are counted by the kernel where it says (``/proc/self/task``),
    so a BLAS pool counts: its threads would fight the child for the
    second CPU.  Elsewhere only Python threads are seen.  A fork from a
    threaded process can deadlock the child, and Python 3.12 warns.
    """
    import os
    import threading

    if rows < _FORK_MIN_ROWS or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    return cpus > 1 and threads == 1


class _ForkedStart:
    """One L-BFGS-B start descending in a forked child.

    The child writes ``(fun, x)`` back over a pipe as float64 bytes and
    exits.  A child that could not be forked, died or raised answers
    ``None``, and the caller descends from that start itself: the same
    answer, only later.
    """

    def __init__(self, pid: int, read_fd: int, size: int):
        self.pid = pid
        self.read_fd = read_fd
        self.size = size

    @classmethod
    def begin(cls, descend, start: np.ndarray) -> Optional["_ForkedStart"]:
        """Fork a child that runs ``descend(start)``; ``None`` if none forks."""
        import os

        try:
            read_fd, write_fd = os.pipe()
        except OSError:
            return None
        try:
            pid = os.fork()
        except BaseException as error:  # the pipe is closed whatever failed
            os.close(read_fd)
            os.close(write_fd)
            if isinstance(error, OSError):
                return None
            raise
        if pid == 0:  # the child never returns into the caller's frames
            status = 1
            try:
                os.close(read_fd)
                fun, x = descend(start)
                os.write(write_fd, np.concatenate(([fun], x)).tobytes())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        return cls(pid, read_fd, 1 + len(start))

    def answer(self) -> Optional[Tuple[float, np.ndarray]]:
        """Wait for the child; its ``(fun, x)``, or ``None`` if it failed."""
        import os

        chunks = [os.read(self.read_fd, 8 * self.size)]
        while chunks[-1]:
            chunks.append(os.read(self.read_fd, 8 * self.size))
        self._reap()
        data = b"".join(chunks)
        if len(data) != 8 * self.size:  # the child wrote all of it or died
            return None
        answer = np.frombuffer(data, dtype=np.float64).copy()
        return float(answer[0]), answer[1:]

    def abandon(self) -> None:
        """Kill and reap the child unless :meth:`answer` already reaped it."""
        import os
        import signal

        if self.pid:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap()

    def _reap(self) -> None:
        """Close the pipe and wait for the child (unless it was reaped
        elsewhere, as under ``SIGCHLD`` ignored)."""
        import os

        os.close(self.read_fd)
        pid, self.pid = self.pid, 0
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


class GaussianProcess:
    """Zero-mean GP regressor with y-standardization."""

    def __init__(self, kernel: str = "matern52", noise_floor: float = 1e-6):
        if kernel not in _KERNELS:
            raise SurrogateError(f"unknown kernel {kernel!r}; use {sorted(_KERNELS)}")
        self.kernel_name = kernel
        self.kernel = _KERNELS[kernel]
        self.noise_floor = noise_floor
        self.hyper: Optional[GPHyperparameters] = None
        self._x: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ fitting
    def _neg_log_marginal_and_grad(
        self,
        log_params: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        sq_diffs: Optional[np.ndarray] = None,
    ):
        """NLL and its analytic gradient w.r.t. the log-scale parameters.

        Replaces L-BFGS-B's finite-difference probing (``d + 3`` NLL
        evaluations per step) with one evaluation that also yields the
        exact gradient via ``dNLL/dθ = -0.5 tr((ααᵀ - K⁻¹) dK/dθ)``.

        ``sq_diffs`` is the hyperparameter-independent ``(n, n, d)``
        squared-coordinate-difference tensor; :meth:`fit` precomputes it
        once per optimization so the hundred-plus evaluations of one
        L-BFGS-B run don't rebuild it.

        The ``n x n`` work runs in place (``out=``) in at most three
        buffers.  Every element goes through the same IEEE operations in the
        same order as the textbook expressions in the comments, so it
        rounds the same; the products summed below stay C-contiguous,
        because NumPy's summation order follows the layout.
        """
        d = x.shape[1]
        n = len(y)
        lengthscales = np.exp(log_params[:d])
        variance = np.exp(log_params[d])
        noise = np.exp(log_params[d + 1]) + self.noise_floor
        if sq_diffs is None:
            sq_diffs = (x[:, None, :] - x[None, :, :]) ** 2
        inv_ls_sq = 1.0 / lengthscales**2
        sq_dist = sq_diffs @ inv_ls_sq
        if self.kernel_name == "rbf":
            # k_core = variance * exp(-0.5 * sq_dist)
            k_core = np.multiply(sq_dist, -0.5, out=sq_dist)
            np.exp(k_core, out=k_core)
            k_core *= variance
            # dK/d s_i = -0.5 * K; with d s_i / d log l_i = -2 s_i
            ls_coef = k_core
            k = np.empty_like(k_core)
        else:  # matern52
            dist = np.sqrt(sq_dist)
            decay = np.multiply(dist, -_SQRT5)
            np.exp(decay, out=decay)  # exp(-sqrt5 * dist)
            one_plus = np.multiply(dist, _SQRT5, out=dist)
            one_plus += 1.0  # 1 + sqrt5 * dist, shared by K and dK/d log l
            # k_core = variance * (one_plus + (5/3) * sq_dist) * decay
            k_core = np.multiply(sq_dist, 5.0 / 3.0, out=sq_dist)
            k_core += one_plus
            k_core *= variance
            k_core *= decay
            # ls_coef = variance * (5/3) * one_plus * decay
            ls_coef = np.multiply(one_plus, variance * (5.0 / 3.0), out=one_plus)
            ls_coef *= decay
            k = decay
        np.copyto(k, k_core)
        k.flat[:: n + 1] += noise + _JITTER
        try:
            chol = np.linalg.cholesky(k)
        except np.linalg.LinAlgError:
            return 1e12, np.zeros_like(log_params)
        # the checks cho_solve((chol, True), .) made: y first, then chol
        if not (np.isfinite(y).all() and np.isfinite(chol).all()):
            raise ValueError("array must not contain infs or NaNs")
        chol_f = np.asfortranarray(chol)
        alpha = _cho_solve(chol_f, y)
        nll = (
            0.5 * float(y @ alpha)
            + float(np.sum(np.log(np.diag(chol))))
            + 0.5 * n * _LOG_2PI
        )
        if not np.isfinite(nll):
            return 1e12, np.zeros_like(log_params)
        k_inv = _cho_solve(chol_f, np.eye(n, order="F"), overwrite_b=True)
        # w = outer(alpha, alpha) - k_inv, in the spent k buffer
        w = np.outer(alpha, alpha, out=k)
        w -= k_inv
        grad = np.empty_like(log_params)
        grad[d + 1] = -0.5 * np.trace(w) * (noise - self.noise_floor)
        # s_i = ((x_i - x_i')/l_i)^2; dK/d log l_i = ls_coef * s_i
        w_ls = np.multiply(w, ls_coef, out=ls_coef)
        grad[:d] = -0.5 * np.einsum("ij,ijk->k", w_ls, sq_diffs) * inv_ls_sq
        # dK/d log variance = K_core; under rbf, w_ls is already w * K_core
        w_k = w_ls if ls_coef is k_core else np.multiply(w, k_core, out=w)
        grad[d] = -0.5 * np.sum(w_k)
        return nll, grad

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        num_restarts: int = 2,
        seed: int = 0,
        optimize_hyper: bool = True,
        hyper: Optional[GPHyperparameters] = None,
        factor: Optional[CholeskyFactor] = None,
    ) -> "GaussianProcess":
        """Fit hyperparameters (optionally) and precompute the solve.

        When ``hyper`` is given, the hyperparameters are taken as-is (used
        to share one marginal-likelihood optimization across the per-slot
        scalarized GPs of the batch sampler).  When ``factor`` is given,
        the kernel Cholesky is reused too and only the y-standardization
        and the two triangular solves run — bit-identical to refitting
        from ``factor.hyper``.
        """
        if factor is not None:
            x = factor.x
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise SurrogateError(
                f"X has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] < 1:
            raise SurrogateError("cannot fit a GP on zero observations")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise SurrogateError("GP training data must be finite")
        self._x = x
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) if y.std() > 1e-12 else 1.0
        y_std = (y - self._y_mean) / self._y_std

        d = x.shape[1]
        if factor is not None:
            self.hyper = factor.hyper
            self._chol = factor.chol
            self._alpha = np.linalg.solve(
                self._chol.T, np.linalg.solve(self._chol, y_std)
            )
            return self
        if hyper is not None:
            self.hyper = GPHyperparameters(
                np.asarray(hyper.lengthscales, dtype=float),
                float(hyper.variance),
                float(hyper.noise),
            )
            self._finalize_fit(x, y_std)
            return self
        initial = np.concatenate(
            [np.log(np.full(d, 0.4)), [np.log(1.0)], [np.log(1e-3)]]
        )
        best_params = initial
        if optimize_hyper and x.shape[0] >= 3:
            rng = np.random.default_rng(seed)
            sq_diffs = (x[:, None, :] - x[None, :, :]) ** 2
            # the first start's first evaluation is ``initial`` again:
            # the last evaluation is reused for the same parameter bytes
            last = [None, None, None]  # params bytes, nll, grad

            def objective(params, x_arg, y_arg):
                key = params.tobytes()
                if key != last[0]:
                    last[1], last[2] = self._neg_log_marginal_and_grad(
                        params, x_arg, y_arg, sq_diffs
                    )
                    last[0] = key
                return last[1], last[2].copy()

            def descend(start):
                result = optimize.minimize(
                    objective,
                    start,
                    args=(x, y_std),
                    jac=True,
                    method="L-BFGS-B",
                    bounds=[(np.log(1e-2), np.log(10.0))] * d
                    + [(np.log(1e-3), np.log(50.0)), (np.log(1e-8), np.log(1.0))],
                    options={"maxiter": 60},
                )
                return result.fun, result.x

            best_nll = objective(initial, x, y_std)[0]
            starts = [initial] + [
                initial + rng.normal(0.0, 0.7, size=initial.shape)
                for _ in range(num_restarts)
            ]
            # when forking pays, every start after the first descends in a
            # child while the first descends here; the outcomes are still
            # compared in start order, and a failed child's start runs here
            children = [None] * len(starts)
            try:
                if _forking_pays(x.shape[0]):
                    for index in range(1, len(starts)):
                        children[index] = _ForkedStart.begin(descend, starts[index])
                for start, child in zip(starts, children):
                    outcome = None if child is None else child.answer()
                    fun, params = descend(start) if outcome is None else outcome
                    if fun < best_nll:
                        best_nll = fun
                        best_params = params
            finally:
                for child in children:
                    if child is not None:
                        child.abandon()
        lengthscales = np.exp(best_params[:d])
        variance = float(np.exp(best_params[d]))
        noise = float(np.exp(best_params[d + 1])) + self.noise_floor
        self.hyper = GPHyperparameters(lengthscales, variance, noise)
        self._finalize_fit(x, y_std)
        return self

    def _finalize_fit(self, x: np.ndarray, y_std: np.ndarray) -> None:
        """Precompute the Cholesky solve for the current hyperparameters."""
        k = self.kernel(x, x, self.hyper.lengthscales, self.hyper.variance)
        k[np.diag_indices_from(k)] += self.hyper.noise + _JITTER
        try:
            self._chol = np.linalg.cholesky(k)
        except np.linalg.LinAlgError:
            k[np.diag_indices_from(k)] += 1e-4
            self._chol = np.linalg.cholesky(k)
        self._alpha = np.linalg.solve(
            self._chol.T, np.linalg.solve(self._chol, y_std)
        )

    # ---------------------------------------------------------------- inference
    def _require_fit(self) -> None:
        if self._x is None or self._alpha is None or self.hyper is None:
            raise SurrogateError("GP queried before fit()")

    def cholesky_factor(self) -> CholeskyFactor:
        """The fitted kernel factorization of the training X, for
        ``fit(..., factor=...)`` on another target."""
        self._require_fit()
        return CholeskyFactor(x=self._x, hyper=self.hyper, chol=self._chol)

    def predict(self, x_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``x_new``."""
        self._require_fit()
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        k_star = self.kernel(
            x_new, self._x, self.hyper.lengthscales, self.hyper.variance
        )
        mean_std = k_star @ self._alpha
        v = np.linalg.solve(self._chol, k_star.T)
        prior_var = self.hyper.variance
        var = np.maximum(prior_var - np.sum(v**2, axis=0), 1e-12)
        mean = mean_std * self._y_std + self._y_mean
        std = np.sqrt(var) * self._y_std
        return mean, std

    @property
    def num_observations(self) -> int:
        return 0 if self._x is None else self._x.shape[0]
