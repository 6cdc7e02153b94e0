"""What the GP fit helper shares with the processes around it.

The helper is a long-lived forked child tied to its owner by two pipes.
A process forked later must hold none of their ends (or it would keep a
dead owner's helper alive), the helper must leave soon after its owner
does, however the owner ends, the helper must keep none of the owner's
files or sockets open, and a fit from a threaded process must not touch
it at all.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.fleet.server import FleetSupervisor, ReplicaSpec
from repro.optim import gp as gp_module
from repro.optim.gp import GaussianProcess

from tests.optim.forking import ROOT, count_forks, forks_elsewhere

BLAS_PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _fit(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (30, 4))
    return GaussianProcess().fit(x, np.sin(4 * x[:, 0]) + x[:, 1] ** 2, seed=seed)


def _pipes_held(pid="self"):
    """The inodes of the pipes process ``pid`` holds an end of."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # closed since the listing
            continue
        if target.startswith("pipe:["):
            inodes.add(int(target[len("pipe:[") : -1]))
    return inodes


def _bare_fork(inodes):
    """Which of ``inodes`` a child of a bare ``os.fork`` holds."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            os.write(write_fd, " ".join(map(str, _pipes_held() & inodes)).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as reply:
        held = {int(inode) for inode in reply.read().split()}
    os.waitpid(pid, 0)
    return held


def _fleet_replica(inodes):
    """Which of ``inodes`` a ``FleetSupervisor`` replica holds."""
    with FleetSupervisor(ReplicaSpec("fsrcnn_120x320"), replicas=1) as fleet:
        return _pipes_held(fleet.status()[0]["pid"]) & inodes


@pytest.mark.parametrize("fork", [_bare_fork, _fleet_replica])
def test_a_process_forked_after_the_helper_holds_none_of_its_pipe_ends(fork):
    if forks_elsewhere():
        return
    _fit()
    helper = gp_module._HELPER
    inodes = {os.fstat(fd).st_ino for fd in (helper.requests, helper.replies)}
    assert _pipes_held() >= inodes  # the owner's two ends
    assert fork(inodes) == set()
    assert gp_module._HELPER is helper and helper.alive()


def test_the_helper_holds_no_descriptor_of_its_owner_but_its_pipes():
    if forks_elsewhere():
        return
    # open in the owner as the helper forks: one below its pipe ends, one above
    below = os.open(os.devnull, os.O_RDONLY)
    above = os.dup2(below, 1000, inheritable=False)
    try:
        _fit()
    finally:
        os.close(below)
        os.close(above)
    helper = gp_module._HELPER
    inodes = {os.fstat(fd).st_ino for fd in (helper.requests, helper.replies)}
    held = sorted(int(fd) for fd in os.listdir(f"/proc/{helper.pid}/fd"))
    assert held[:3] == [0, 1, 2] and len(held) == 5  # stdio and one end of each pipe
    assert _pipes_held(helper.pid) == inodes


_OWNER = textwrap.dedent(
    """
    import sys, time
    import numpy as np
    from repro.optim import gp
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (30, 4))
    gp.GaussianProcess().fit(x, np.sin(4 * x[:, 0]), seed=0)
    print(0 if gp._HELPER is None else gp._HELPER.pid, flush=True)
    if sys.argv[1] == "killed":
        time.sleep(60)
    """
)


def _state(pid):
    """``pid``'s state letter, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.parametrize("ending", ["exits", "killed"])
def test_the_helper_leaves_soon_after_its_owner(ending):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a fit forks its helper only where a second CPU can run it")
    env = dict(os.environ, **BLAS_PINNED, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(
        [sys.executable, "-c", _OWNER, ending], env=env, stdout=subprocess.PIPE, text=True
    ) as owner:
        helper = int(owner.stdout.readline())
        assert helper, "the owner forked no fit helper"
        if ending == "killed":
            owner.send_signal(signal.SIGKILL)
        owner.wait(timeout=60)
    deadline = time.monotonic() + 10.0
    while _state(helper) not in (None, "Z"):  # gone, or dead and not yet reaped
        assert time.monotonic() < deadline, f"helper {helper} outlived its owner"
        time.sleep(0.02)


def test_a_fit_from_a_threaded_process_never_touches_the_helper(monkeypatch):
    if forks_elsewhere():
        return
    _fit()
    helper = gp_module._HELPER
    written = []
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: written.append(fd) or write(fd, data))
    forks = count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _fit(seed=1)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert helper.requests not in written
    assert forks() == 0
    _fit(seed=2)  # one thread again: the same helper serves
    assert helper.requests in written
    assert gp_module._HELPER is helper and forks() == 0
