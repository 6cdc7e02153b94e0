"""Helpers for tests of the GP fit helper.

:meth:`repro.optim.gp.GaussianProcess.fit` sends its second L-BFGS-B
start to the process's fit helper, a forked child, only from a process
with no other thread.  pytest's process may hold a BLAS pool, or a
thread an earlier test left alive, and would then pass such a test by
quietly descending in process.  :func:`forks_elsewhere` runs the test
in a fresh interpreter with one BLAS thread instead, together with every
other test of its module that calls it: one interpreter per module, whose
outcomes the module's tests then read.  Each test there starts with no
fit helper.  :func:`count_forks` counts every ``os.fork`` from then on,
the helper's included.
"""

import functools
import os
import pathlib
import subprocess
import sys

import pytest

import repro.optim.gp as gp_module

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: set in the fresh interpreter, so a test that still cannot fork there fails
_FRESH = "REPRO_TEST_FORKING_INTERPRETER"
_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def forks_elsewhere() -> bool:
    """``False`` if a fit may fork here (the test then starts with no fit
    helper); otherwise assert that the current test passed in a fresh
    interpreter and return ``True``."""
    if gp_module._forking_pays():
        if gp_module._HELPER is not None:  # an earlier test's
            gp_module._HELPER.close()
        return False
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a fit forks its helper only where a second CPU can run it")
    if os.environ.get(_FRESH):
        pytest.fail("a fresh interpreter with one BLAS thread may not fork")
    test_id = os.environ["PYTEST_CURRENT_TEST"].rsplit(" ", 1)[0]
    passed, output = _fresh_run(test_id.split("::", 1)[0])
    assert test_id in passed, output
    return True


@functools.lru_cache(maxsize=None)
def _fresh_run(path):
    """Run the tests of the module at ``path`` that call
    :func:`forks_elsewhere` in one fresh interpreter: ``(ids that passed,
    the tail of its output)``."""
    module = sys.modules[path[: -len(".py")].replace("/", ".")]
    tests = [
        f"{path}::{name}"
        for name, test in vars(module).items()
        if name.startswith("test") and "forks_elsewhere" in test.__code__.co_names
    ]
    env = dict(os.environ, **{name: "1" for name in _BLAS_THREADS}, **{_FRESH: "1"})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    passed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("PASSED ")}
    return passed, done.stdout[-4000:] + done.stderr[-2000:]


class _Fork:
    """What the hooks registered below do at each ``os.fork``.

    Hooks, not a wrapper, so the fork is still called from
    ``repro.optim.gp``, where a warning filter on that module can see it.
    """

    count = 0
    in_child = None
    in_parent = None


def _after_in_parent():
    _Fork.count += 1
    if _Fork.in_parent is not None:
        _Fork.in_parent()


def _after_in_child():
    if _Fork.in_child is not None:
        _Fork.in_child()


os.register_at_fork(after_in_child=_after_in_child, after_in_parent=_after_in_parent)


def count_forks(monkeypatch, in_child=None, in_parent=None):
    """Count forks from now on: returns a function that reads the count;
    ``in_child`` / ``in_parent`` run on their side of each fork."""
    monkeypatch.setattr(_Fork, "in_child", in_child)
    monkeypatch.setattr(_Fork, "in_parent", in_parent)
    start = _Fork.count
    return lambda: _Fork.count - start
