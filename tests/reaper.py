"""Run a command and fail if any process it started outlives it.

    python tests/reaper.py -- COMMAND [ARG ...]

The wrapper makes itself a child subreaper (Linux ``PR_SET_CHILD_SUBREAPER``),
so a descendant orphaned by the command becomes its own child instead of
init's.  Once the command has exited, every such child is *left*: it
outlived the command.  Those still running ``GRACE_S`` seconds later are
*running*; they are SIGKILLed, and so is whatever they orphan in turn,
so the wrapper itself leaves nothing behind.

The last line on stderr is a JSON report, ``{"returncode": ...,
"left": [pids], "running": [pids]}``.  The exit status is the command's
when it failed, else 1 if any process was left, else 0.
"""

import ctypes
import json
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36

#: seconds a left process may take to exit before it counts as running
GRACE_S = 10.0


def _children():
    """Pids whose parent is this process, zombies included."""
    me, found = str(os.getpid()), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                if stat.read().rsplit(")", 1)[1].split()[1] == me:
                    found.append(int(pid))
        except OSError:  # gone since the listing
            continue
    return found


def _reaped(pid):
    """Whether child ``pid`` has exited (and is now reaped)."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def main():
    command = sys.argv[1:]
    if command[:1] == ["--"]:
        command = command[1:]
    if not command:
        sys.exit("usage: python tests/reaper.py -- COMMAND [ARG ...]")
    if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0):
        sys.exit("reaper: prctl(PR_SET_CHILD_SUBREAPER) refused")
    returncode = subprocess.run(command, check=False).returncode
    left = _children()
    deadline, running = time.monotonic() + GRACE_S, list(left)
    while running and time.monotonic() < deadline:
        time.sleep(0.02)
        # one that exits may orphan children of its own: they are left too
        running = [pid for pid in _children() if not _reaped(pid)]
        left += [pid for pid in running if pid not in left]
    stragglers = running
    while stragglers:
        for pid in stragglers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if not _reaped(pid):
                os.waitpid(pid, 0)
        stragglers = _children()
    report = {"returncode": returncode, "left": left, "running": running}
    print(json.dumps(report), file=sys.stderr, flush=True)
    if returncode:
        return returncode if returncode > 0 else 128 - returncode
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main())
