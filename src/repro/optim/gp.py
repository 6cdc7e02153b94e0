"""Gaussian-process regression (the MOBO surrogate), from scratch.

A standard zero-mean GP with an ARD Matérn-5/2 kernel, Cholesky solves,
and marginal-likelihood hyperparameter fitting via two-start L-BFGS-B on
log-scale parameters.  Inputs are the ``[0, 1]^d`` ordinal encodings
produced by the hardware design spaces; outputs are normalized objective
values.

Only what MOBO needs is implemented: ``fit`` and ``predict`` (mean/std).

Three outer-loop fast paths live here:

* hyperparameter fitting uses the *analytic* marginal-likelihood gradient,
  replacing L-BFGS-B's finite-difference probing — one (value, gradient)
  evaluation instead of ``d + 3`` value evaluations per optimizer step —
  and each evaluation works in a handful of reused ``n x n`` buffers and
  calls LAPACK's ``dpotrs`` directly;
* :meth:`GaussianProcess.cholesky_factor` exposes the kernel Cholesky as
  a reusable :class:`CholeskyFactor`, so the batch sampler's per-slot
  posteriors (same X, same shared hyperparameters, different scalarized
  y) skip the :math:`O(n^3)` re-factorization;
* each fit's second L-BFGS-B start descends in the process's one fit
  helper, a child forked by the first fit that may fork
  (:func:`_forking_pays`) and reused by every later one, while the first
  start descends here; the data goes over a pipe as float64 bytes and the
  outcomes are compared in start order, so the fit is the same bits
  either way.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize
from scipy.linalg import lapack

from repro.errors import SurrogateError

_JITTER = 1e-8
#: added to the fitted noise variance, so K stays well conditioned
_NOISE_FLOOR = 1e-6
_SQRT5 = np.sqrt(5.0)
_LOG_2PI = np.log(2 * np.pi)


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


def _forking_pays() -> bool:
    """Whether :meth:`GaussianProcess.fit` hands its second L-BFGS-B start
    to the process's fit helper: the process can fork, another CPU is
    there to run the helper, and the process has no other thread.

    Asked at every fit.  Threads are counted by the kernel where it says
    (``/proc/self/task``), so a BLAS pool counts: its threads would fight
    the helper for the second CPU.  Elsewhere only Python threads are
    seen.  A fork from a threaded process can deadlock the child, and
    Python 3.12 warns.
    """
    import threading

    if not hasattr(os, "fork"):
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


def _descent(gp: "GaussianProcess", x: np.ndarray, y_std: np.ndarray):
    """One fit's marginal-likelihood objective and its L-BFGS-B descent
    ``start -> (fun, params)``: the code both starts run, here and in the
    fit helper.

    The objective reuses its last evaluation for the same parameter
    bytes, so the first start's first evaluation of ``initial``, which
    the fit has just scored, is not repeated.
    """
    d = x.shape[1]
    sq_diffs = (x[:, None, :] - x[None, :, :]) ** 2
    last = [None, None, None]  # params bytes, nll, grad

    def objective(params, x_arg, y_arg):
        key = params.tobytes()
        if key != last[0]:
            last[1], last[2] = gp._neg_log_marginal_and_grad(params, x_arg, y_arg, sq_diffs)
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

    return objective, descend


def _read_exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer if every writer closed first."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to ``fd``, however many writes it takes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _serve(requests: int, replies: int) -> None:
    """The fit helper's loop: one descent per request, until the owner
    closes its end of ``requests`` or exits.

    A request is float64 bytes: ``(rows, columns)``, then ``x``,
    ``y_std`` and the start; the reply is ``(fun, params)``.
    """
    import gc

    # the owner's objects are never collected here, so none of their
    # finalizers runs in the helper; nor does it keep the owner's files
    # and sockets open
    gc.freeze()
    low, high = sorted((requests, replies))
    os.closerange(3, low)
    os.closerange(low + 1, high)
    os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
    while True:
        header = _read_exactly(requests, 16)
        if len(header) < 16:
            return
        rows, columns = np.frombuffer(header)
        rows, columns = int(rows), int(columns)
        size = rows * columns + rows + columns + 2
        body = _read_exactly(requests, 8 * size)
        if len(body) < 8 * size:
            return
        values = np.frombuffer(body).copy()
        x = values[: rows * columns].reshape(rows, columns)
        y_std = values[rows * columns : rows * columns + rows]
        fun, params = _descent(GaussianProcess(), x, y_std)[1](values[rows * columns + rows :])
        _write_all(replies, np.concatenate(([fun], params)).tobytes())


class _FitHelper:
    """The process's fit helper: a forked child that descends each fit's
    second L-BFGS-B start while the fit descends its first.

    Forked once per owner process and reused by every later fit; a
    helper that died, raised or was abandoned mid-fit is closed, and the
    next fit forks another.  The owner's ends of the two pipes are the
    only file descriptors that tie the two together.
    """

    def __init__(self, pid: int, requests: int, replies: int):
        self.pid = pid
        self.owner = os.getpid()
        self.requests = requests
        self.replies = replies
        self.reply_size = 0

    @classmethod
    def start(cls, mask) -> Optional["_FitHelper"]:
        """Fork a helper; ``None`` if the pipes or the fork are refused.
        The helper runs with the signal mask ``mask``."""
        import signal

        fds = []
        try:
            fds.extend(os.pipe())
            fds.extend(os.pipe())
            pid = os.fork()
        except BaseException as error:  # the pipes are closed whatever failed
            for fd in fds:
                os.close(fd)
            if isinstance(error, OSError):
                return None
            raise
        request_r, request_w, reply_r, reply_w = fds
        if pid == 0:  # the helper never returns into the caller's frames
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(request_w)
                os.close(reply_r)
                _serve(request_r, reply_w)
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        return cls(pid, request_w, reply_r)

    def send(self, x, y_std, start) -> bool:
        """Ask for a descent from ``start``; ``False`` if the helper is
        gone (it is then closed)."""
        data = np.concatenate((x.shape, x.ravel(), y_std, start)).tobytes()
        try:
            _write_all(self.requests, data)
        except OSError:  # EPIPE: the helper died since the fit asked
            self.close()
            return False
        self.reply_size = 8 * (1 + len(start))
        return True

    def answer(self) -> Optional[Tuple[float, np.ndarray]]:
        """The helper's ``(fun, params)``; ``None`` if it died or raised
        first (it is then closed)."""
        data = _read_exactly(self.replies, self.reply_size)
        if len(data) < self.reply_size:
            self.close()
            return None
        values = np.frombuffer(data).copy()
        return float(values[0]), values[1:]

    def alive(self) -> bool:
        """Whether the helper still runs; a dead one is reaped here."""
        try:
            return os.waitpid(self.pid, os.WNOHANG)[0] == 0
        except ChildProcessError:  # reaped elsewhere, as under SIGCHLD ignored
            return False

    def close(self) -> None:
        """Close the owner's pipe ends, kill and reap the helper, and
        forget it."""
        import signal

        global _HELPER
        if _HELPER is self:
            _HELPER = None
        os.close(self.requests)
        os.close(self.replies)
        if self.alive():  # still this process's child, so the pid is its own
            os.kill(self.pid, signal.SIGKILL)
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass


#: the process's fit helper, ``None`` until a fit forks one
_HELPER: Optional[_FitHelper] = None


def _fit_helper() -> Optional[_FitHelper]:
    """This process's live fit helper, forked now if there is none;
    ``None`` if none forks."""
    import signal

    global _HELPER
    helper = _HELPER
    if helper is not None and helper.owner == os.getpid():  # not inherited
        if helper.alive():
            return helper
        helper.close()
    # a handler that reaps the helper on SIGTERM or SIGINT (a hub run
    # child's) must find it bound: both wait from the fork until it is
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGTERM, signal.SIGINT))
    try:
        _HELPER = _FitHelper.start(mask)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return _HELPER


def _forget_helper_in_child() -> None:
    """Run in every child ``os.fork`` makes: it holds none of the fit
    helper's pipe ends, and forks a helper of its own when it fits."""
    global _HELPER
    if _HELPER is not None:
        os.close(_HELPER.requests)
        os.close(_HELPER.replies)
        _HELPER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper_in_child)


@atexit.register
def close_fit_helper() -> None:
    """Kill and reap this process's fit helper, if it has one: run as the
    interpreter exits, so no helper outlives its owner.  A child that
    inherited the hook owns no helper of its parent's; a child that leaves
    by ``os._exit`` (a ``multiprocessing`` child) must call it itself."""
    if _HELPER is not None and _HELPER.owner == os.getpid():
        _HELPER.close()


class GaussianProcess:
    """Zero-mean Matérn-5/2 GP regressor with y-standardization."""

    def __init__(self):
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
        noise = np.exp(log_params[d + 1]) + _NOISE_FLOOR
        if sq_diffs is None:
            sq_diffs = (x[:, None, :] - x[None, :, :]) ** 2
        inv_ls_sq = 1.0 / lengthscales**2
        sq_dist = sq_diffs @ inv_ls_sq
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
        grad[d + 1] = -0.5 * np.trace(w) * (noise - _NOISE_FLOOR)
        # s_i = ((x_i - x_i')/l_i)^2; dK/d log l_i = ls_coef * s_i
        w_ls = np.multiply(w, ls_coef, out=ls_coef)
        grad[:d] = -0.5 * np.einsum("ij,ijk->k", w_ls, sq_diffs) * inv_ls_sq
        # dK/d log variance = K_core
        grad[d] = -0.5 * np.sum(np.multiply(w, k_core, out=w))
        return nll, grad

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int = 0) -> "GaussianProcess":
        """Fit the hyperparameters and precompute the solve.

        The hyperparameters minimize the negative log marginal likelihood
        over two L-BFGS-B starts: the fixed ``initial`` parameters and one
        perturbation of them drawn from ``seed``.  Fewer than three
        observations keep ``initial``.
        """
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
        initial = np.concatenate(
            [np.log(np.full(d, 0.4)), [np.log(1.0)], [np.log(1e-3)]]
        )
        best_params = initial
        if x.shape[0] >= 3:
            rng = np.random.default_rng(seed)
            second = initial + rng.normal(0.0, 0.7, size=initial.shape)
            # when forking pays, the second start descends in the fit
            # helper (sent first, so it starts first) while the first
            # descends here, and the outcomes are still compared in start
            # order; the helper runs this class's objective only, so a
            # subclass that replaces it keeps both starts here
            helper = None
            try:
                if (
                    _forking_pays()
                    and type(self)._neg_log_marginal_and_grad
                    is GaussianProcess._neg_log_marginal_and_grad
                ):
                    helper = _fit_helper()
                    if helper is not None and not helper.send(x, y_std, second):
                        helper = None
                objective, descend = _descent(self, x, y_std)
                best_nll = objective(initial, x, y_std)[0]
                outcomes = [descend(initial), None if helper is None else helper.answer()]
                helper = None  # answered: nothing of this fit is left in the pipe
            finally:
                if helper is not None:  # no later fit may read this fit's reply
                    helper.close()
            if outcomes[1] is None:  # no helper, or it died or raised
                outcomes[1] = descend(second)
            for fun, params in outcomes:
                if fun < best_nll:
                    best_nll = fun
                    best_params = params
        lengthscales = np.exp(best_params[:d])
        variance = float(np.exp(best_params[d]))
        noise = float(np.exp(best_params[d + 1])) + _NOISE_FLOOR
        self.hyper = GPHyperparameters(lengthscales, variance, noise)
        self._finalize_fit(x, y_std)
        return self

    def _finalize_fit(self, x: np.ndarray, y_std: np.ndarray) -> None:
        """Precompute the Cholesky solve for the current hyperparameters."""
        k = matern52_kernel(x, x, self.hyper.lengthscales, self.hyper.variance)
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
        """The fitted kernel factorization of the training X, for the
        posteriors of other targets on the same X."""
        self._require_fit()
        return CholeskyFactor(x=self._x, hyper=self.hyper, chol=self._chol)

    def predict(self, x_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``x_new``."""
        self._require_fit()
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        k_star = matern52_kernel(
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
