"""What the GP fit helper shares with the processes around it.

The helper is a long-lived forked child tied to its owner by two pipes.
A process forked later must hold none of their ends (or it would keep a
dead owner's helper alive), the helper must leave soon after its owner
does, however the owner ends, the helper must keep none of the owner's
files or sockets open, and a fit from a threaded process must not touch
it at all.
"""

import json
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
import repro.optim.gp as gp_module
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
    import os, select, signal, sys, tempfile, time
    import numpy as np
    import repro.optim.gp as gp

    def fit():
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (30, 4))
        gp.GaussianProcess().fit(x, np.sin(4 * x[:, 0]), seed=0)
        print(0 if gp._HELPER is None else gp._HELPER.pid, flush=True)

    def hub_run(cancel, in_start=False, in_close=False):
        # the owner is a hub: its run child forks the helper and reports it
        from repro.hub.scheduler import RunScheduler
        read_fd, write_fd = os.pipe()
        fit_helper, start = gp._fit_helper, gp._FitHelper.start
        close, alive = gp._FitHelper.close, gp._FitHelper.alive
        def reporting_fit_helper():
            helper = fit_helper()
            if helper is not None:
                os.write(write_fd, b"%d " % helper.pid)
            return helper
        def reporting_start(*args):
            # reports from inside start(), then stays there until the
            # cancel's SIGTERM has arrived (or been held pending)
            helper = start(*args)
            if helper is not None:
                os.write(write_fd, b"%d " % helper.pid)
                deadline = time.monotonic() + 30.0
                while signal.SIGTERM not in signal.sigpending() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return helper
        def reporting_close(self):
            self.closing = True
            close(self)
        def reporting_alive(self):
            # reports from inside the run's last close(), after the helper
            # is forgotten and before it is reaped, then stays there until
            # the hub's stop has sent SIGTERM (or it is held pending)
            if getattr(self, "closing", False):
                os.write(write_fd, b"%d " % self.pid)
                deadline = time.monotonic() + 30.0
                while signal.SIGTERM not in signal.sigpending() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return alive(self)
        if in_start:
            gp._FitHelper.start = reporting_start
        elif in_close:
            gp._FitHelper.close, gp._FitHelper.alive = reporting_close, reporting_alive
        else:
            gp._fit_helper = reporting_fit_helper
        with tempfile.TemporaryDirectory() as runs, RunScheduler(runs) as hub:
            run_id = hub.submit(
                {"method": "unico", "scenario": "edge", "workload": "fsrcnn_120x320",
                 "preset": "bench"}
            )
            while not select.select([read_fd], [], [], 0.05)[0]:
                if hub.store.get(run_id).read_manifest()["status"] != "queued":
                    if not hub.state()["running"]:
                        os.write(write_fd, b"0 ")  # finished with no helper
            print(os.read(read_fd, 64).split()[0].decode(), flush=True)
            if in_close:
                return  # leaving the block stops the hub: SIGTERM to the closing child
            if cancel:
                assert hub.cancel(run_id) == "cancelling"
            while hub.state()["running"]:
                time.sleep(0.02)
            status = hub.store.get(run_id).read_manifest()["status"]
            assert status == ("cancelled" if cancel else "completed"), status

    if sys.argv[1].startswith("hub_"):
        hub_run(
            cancel=sys.argv[1] != "hub_run",
            in_start=sys.argv[1].endswith("_in_start"),
            in_close=sys.argv[1].endswith("_in_close"),
        )
    else:
        fit()
    if sys.argv[1] == "killed":  # no exit hook runs
        os.kill(os.getpid(), signal.SIGKILL)
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="a child subreaper is Linux's")
@pytest.mark.parametrize(
    "ending",
    ["exits", "hub_run", "hub_cancelled", "hub_cancelled_in_start", "hub_stopped_in_close", "killed"],
)
def test_the_helper_leaves_soon_after_its_owner(ending):
    """An owner that exits has killed and reaped its helper by then, and so
    has a hub's run child (it leaves by ``os._exit``, past ``atexit``),
    whether its run completes or is cancelled by SIGTERM, even while the
    helper is still being forked, or while its last close is under way
    when a stopping hub sends SIGTERM: the reaper is left no child.  A
    SIGKILLed owner cannot, and its helper, orphaned, reads end-of-file
    and exits within 10 s."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a fit forks its helper only where a second CPU can run it")
    env = dict(os.environ, **BLAS_PINNED, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reaper.py"), "--",
         sys.executable, "-c", _OWNER, ending],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    report = json.loads(done.stderr.splitlines()[-1])
    helper = int(done.stdout.split()[0])
    assert helper, "the owner forked no fit helper"
    if ending == "killed":
        assert report["returncode"] == -signal.SIGKILL
    else:
        assert report["returncode"] == 0, done.stderr[-2000:]
        assert report["left"] == [], f"helper {helper} outlived its owner"
    assert report["running"] == [], f"helper {helper} was still running 10 s after its owner"


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


#: start-join-ask rounds; before the ask waited for a joined thread to
#: leave ``/proc/self/task``, 35-50 % of single rounds saw it still there
JOIN_ROUNDS = 200


def test_a_fit_right_after_a_thread_ends_uses_the_helper(monkeypatch):
    """A thread ``join()``ed a moment ago is still listed as a task for a
    few microseconds.  The fit that follows must wait it out and read the
    process as single-threaded, every one of ``JOIN_ROUNDS`` times."""
    if forks_elsewhere():
        return
    _fit()
    helper = gp_module._HELPER
    written = []
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: written.append(fd) or write(fd, data))
    forks = count_forks(monkeypatch)
    for round_ in range(JOIN_ROUNDS):
        thread = threading.Thread(target=int)
        thread.start()
        thread.join()
        assert gp_module._forking_pays(), f"round {round_} read a joined thread as live"
    thread = threading.Thread(target=int)
    thread.start()
    thread.join()
    _fit(seed=1)
    assert helper.requests in written
    assert gp_module._HELPER is helper and forks() == 0


def test_a_thread_threading_never_started_reads_as_threaded_and_is_waited_on_once(
    monkeypatch,
):
    """A thread outside :mod:`threading` (as a BLAS pool's are) is seen
    only in the task list: the first ask waits to see it stay, and no
    later ask waits again.  A live Python thread is never waited on."""
    if forks_elsewhere():
        return
    import _thread

    started, release = _thread.allocate_lock(), _thread.allocate_lock()
    started.acquire()
    release.acquire()

    def park():
        started.release()
        release.acquire()

    _thread.start_new_thread(park, ())
    started.acquire()
    sleeps = []
    sleep = time.sleep
    monkeypatch.setattr(time, "sleep", lambda seconds: sleeps.append(seconds) or sleep(seconds))
    try:
        assert not gp_module._forking_pays()
        assert sleeps, "the first ask did not wait for the unknown task"
        sleeps.clear()
        for _ in range(3):
            assert not gp_module._forking_pays()
        assert sleeps == []
    finally:
        release.release()
    live = threading.Event()
    thread = threading.Thread(target=live.wait)
    thread.start()
    try:
        assert not gp_module._forking_pays()
        assert sleeps == []
    finally:
        live.set()
        thread.join()
