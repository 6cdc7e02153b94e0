"""Tests for the from-scratch Gaussian process."""

import errno
import os
import signal
import time

import numpy as np
import pytest
from scipy import optimize

from repro.errors import SurrogateError
import repro.optim.gp as gp_module
from repro.optim.gp import _NOISE_FLOOR, GaussianProcess, matern52_kernel

from tests.optim.forking import count_forks, forks_elsewhere


def _toy_data(n=40, d=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, d))
    y = np.sin(5 * x[:, 0]) + x[:, 1] ** 2
    if d > 2:
        y = y - 0.5 * x[:, 2]
    return x, y


class TestKernels:
    def test_matern_diagonal_is_variance(self):
        x = np.random.default_rng(0).uniform(0, 1, (5, 2))
        k = matern52_kernel(x, x, np.ones(2), 3.0)
        assert np.allclose(np.diag(k), 3.0)

    def test_kernels_decay_with_distance(self):
        a = np.zeros((1, 2))
        near = np.array([[0.1, 0.1]])
        far = np.array([[3.0, 3.0]])
        assert matern52_kernel(a, near, np.ones(2), 1.0) > matern52_kernel(a, far, np.ones(2), 1.0)

    def test_kernel_psd(self):
        x = np.random.default_rng(1).uniform(0, 1, (20, 3))
        k = matern52_kernel(x, x, np.full(3, 0.5), 1.0)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > -1e-8


class TestFitPredict:
    def test_interpolates_training_data(self):
        x, y = _toy_data()
        gp = GaussianProcess().fit(x, y)
        mean, std = gp.predict(x)
        assert np.max(np.abs(mean - y)) < 0.05
        assert np.all(std < 0.2)

    def test_uncertainty_grows_away_from_data(self):
        x, y = _toy_data(n=20, d=2)
        gp = GaussianProcess().fit(x, y)
        _near_mean, near_std = gp.predict(x[:1] + 0.01)
        _far_mean, far_std = gp.predict(np.full((1, 2), 5.0))
        assert far_std[0] > near_std[0]

    def test_generalizes_on_smooth_function(self):
        x, y = _toy_data(n=60, d=3, seed=1)
        x_test, y_test = _toy_data(n=20, d=3, seed=2)
        gp = GaussianProcess().fit(x, y)
        mean, _std = gp.predict(x_test)
        rmse = float(np.sqrt(np.mean((mean - y_test) ** 2)))
        assert rmse < 0.25

    def test_constant_targets(self):
        x = np.random.default_rng(0).uniform(0, 1, (10, 2))
        gp = GaussianProcess().fit(x, np.full(10, 3.0))
        mean, _std = gp.predict(x[:3])
        assert np.allclose(mean, 3.0, atol=1e-6)

    def test_single_observation(self):
        gp = GaussianProcess().fit(np.array([[0.5, 0.5]]), np.array([2.0]))
        mean, std = gp.predict(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(2.0, abs=0.2)
        assert std[0] >= 0


def _hyperparameters_without_reuse(gp, x, y, seed=0):
    """The marginal-likelihood optimization of ``fit`` as it was before the
    objective reused its last evaluation: ``initial`` is scored, then the
    first L-BFGS-B start scores it again."""
    y_std = (y - float(y.mean())) / (float(y.std()) if y.std() > 1e-12 else 1.0)
    d = x.shape[1]
    sq_diffs = (x[:, None, :] - x[None, :, :]) ** 2

    def objective(params, x_arg, y_arg):
        return gp._neg_log_marginal_and_grad(params, x_arg, y_arg, sq_diffs)

    initial = np.concatenate([np.log(np.full(d, 0.4)), [np.log(1.0)], [np.log(1e-3)]])
    best_params = initial
    best_nll = objective(initial, x, y_std)[0]
    rng = np.random.default_rng(seed)
    for start in (initial, initial + rng.normal(0.0, 0.7, size=initial.shape)):
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
        if result.fun < best_nll:
            best_nll = result.fun
            best_params = result.x
    return (
        np.exp(best_params[:d]),
        float(np.exp(best_params[d])),
        float(np.exp(best_params[d + 1])) + _NOISE_FLOOR,
    )


@pytest.mark.parametrize(
    "n,d,seed",
    [pytest.param(30, 3, 0, id="matern52-30-3-0"), pytest.param(12, 6, 4, id="matern52-12-6-4")],
)
def test_fit_scores_initial_once_with_the_same_hyperparameters(n, d, seed, monkeypatch):
    calls = 0
    evaluate = GaussianProcess._neg_log_marginal_and_grad

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return evaluate(self, *args)

    monkeypatch.setattr(GaussianProcess, "_neg_log_marginal_and_grad", counted)
    # the count is the parent's: both starts descend here
    monkeypatch.setattr(gp_module, "_forking_pays", lambda: False)
    x, y = _toy_data(n=n, d=d, seed=seed)
    gp = GaussianProcess().fit(x, y, seed=7)
    fit_calls, calls = calls, 0
    lengthscales, variance, noise = _hyperparameters_without_reuse(GaussianProcess(), x, y, seed=7)
    assert fit_calls == calls - 1
    assert gp.hyper.lengthscales.tobytes() == lengthscales.tobytes()
    assert gp.hyper.variance.hex() == variance.hex()
    assert gp.hyper.noise.hex() == noise.hex()


# --------------------------------------------- a fit helper that fails
# Each fault gives the slower exact answer: the parent descends from the
# second start itself, and a later fit forks a new helper.  No case leaves
# a helper it gave up on behind.
def _second_start_fit(monkeypatch, in_process=False, data_seed=3):
    """A fit whose second start wins (for data seeds 3 and 5), so a lost
    or stale answer changes the hyperparameters."""
    x, y = _toy_data(n=80, d=4, seed=data_seed)
    with monkeypatch.context() as patch:
        if in_process:
            patch.setattr(gp_module, "_forking_pays", lambda: False)
        return GaussianProcess().fit(x, y, seed=5)


def _fit_bytes(gp):
    hyper = gp.hyper
    return hyper.lengthscales.tobytes(), hyper.variance.hex(), hyper.noise.hex(), gp._chol.tobytes()


def _failing_minimize(*args, **kwargs):
    raise FloatingPointError("descent failed")


def _assert_reaped(pid):
    """``pid`` was this process's child and has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def _wait_until_dead(pid):
    """Poll until ``pid`` is a zombie (the helper is not reaped here)."""
    for _ in range(500):
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} still runs")


def _child_exits_before_answering(monkeypatch):
    # set in the helper alone: it dies in the middle of its descent
    return count_forks(
        monkeypatch, in_child=lambda: setattr(optimize, "minimize", lambda *a, **k: os._exit(0))
    )


def _child_descent_raises(monkeypatch):
    # set in the helper alone, which exits without undoing it
    return count_forks(
        monkeypatch, in_child=lambda: setattr(optimize, "minimize", _failing_minimize)
    )


def _fork_raises_oserror(monkeypatch):
    refused = []

    def refusing_fork():
        refused.append(errno.EAGAIN)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refusing_fork)
    return lambda: len(refused)


@pytest.mark.parametrize(
    "fault", [_child_exits_before_answering, _child_descent_raises, _fork_raises_oserror]
)
def test_a_failed_child_gives_the_in_process_fit(fault, monkeypatch):
    if forks_elsewhere():
        return
    expected = _fit_bytes(_second_start_fit(monkeypatch, in_process=True))
    forks = fault(monkeypatch)
    assert _fit_bytes(_second_start_fit(monkeypatch)) == expected
    assert forks() == 1
    assert gp_module._HELPER is None
    with pytest.raises(ChildProcessError):  # no child is left
        os.waitpid(-1, os.WNOHANG)


def test_a_helper_killed_between_fits_is_replaced_by_the_next_fit(monkeypatch):
    if forks_elsewhere():
        return
    expected = _fit_bytes(_second_start_fit(monkeypatch, in_process=True))
    forks = count_forks(monkeypatch)
    assert _fit_bytes(_second_start_fit(monkeypatch)) == expected
    killed = gp_module._HELPER.pid
    os.kill(killed, signal.SIGKILL)
    _wait_until_dead(killed)
    assert _fit_bytes(_second_start_fit(monkeypatch)) == expected
    assert forks() == 2
    _assert_reaped(killed)
    assert gp_module._HELPER.pid != killed and gp_module._HELPER.alive()


def test_the_parent_start_raising_raises_as_in_process_and_kills_the_child(monkeypatch):
    if forks_elsewhere():
        return
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "minimize", _failing_minimize)
        with pytest.raises(Exception) as in_process:
            _second_start_fit(monkeypatch, in_process=True)
    expected = _fit_bytes(_second_start_fit(monkeypatch, in_process=True, data_seed=5))
    forks = count_forks(monkeypatch)
    _second_start_fit(monkeypatch)  # forks the helper, which keeps the real minimize
    abandoned = gp_module._HELPER.pid
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "minimize", _failing_minimize)  # the parent's only
        with pytest.raises(Exception) as with_helper:
            _second_start_fit(monkeypatch)
    assert (type(with_helper.value), str(with_helper.value)) == (
        type(in_process.value), str(in_process.value)
    )
    _assert_reaped(abandoned)
    # the next fit reads its own second start, not the abandoned fit's
    assert _fit_bytes(_second_start_fit(monkeypatch, data_seed=5)) == expected
    assert forks() == 2


class TestErrors:
    def test_mismatched_sizes(self):
        with pytest.raises(SurrogateError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_non_finite_data(self):
        with pytest.raises(SurrogateError):
            GaussianProcess().fit(np.array([[np.nan, 0]]), np.array([1.0]))

    def test_predict_before_fit(self):
        with pytest.raises(SurrogateError):
            GaussianProcess().predict(np.zeros((1, 2)))
