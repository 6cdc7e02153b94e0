"""Where a replica's time per request goes: one search's bodies, replayed.

::

    python3 benchmarks/replica_replay.py
    python3 benchmarks/replica_replay.py --passes 9

Records the ``POST /evaluate_layers`` bodies that one seed-0 search of the
end-to-end benchmark's ``remote_inner`` workload sends to a forked replica
(the benchmark's own route and search), then replays them in order
through a fresh in-process replica's ``PPAServiceServer._dispatch`` — no
sockets — and prints microseconds per request by part:

=======  ==========================================================
parse    the body's JSON (``Request.json``)
decode   config and mapping rows (``service.decode_object``)
cache    the replica's LRU (``PPAServiceServer._evaluate_cached``,
         less the engine call inside it)
kernel   the engine call (the engine's ``evaluate_groups``)
encode   the reply body (``httpcore.json_reply``)
other    the rest of the handler and of the core's dispatch
=======  ==========================================================

Every pass replays into a fresh replica, so its cache starts as cold as
the search's did.  The parts come from passes with each part's function
wrapped in a ``perf_counter`` timer (self time: a part nested in another
is not counted twice), which adds a little to every wrapped call; the
last row is the ``process_time`` of passes with nothing wrapped.  Each
row is its minimum over the passes.  What the wire adds on top is the
benchmark's ``--trace 1`` row ``fleet.wire_s``.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import tempfile
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
PARTS = ("parse", "decode", "cache", "kernel", "encode", "other")


def record_bodies() -> List[bytes]:
    """The request bodies of one seed-0 ``remote_inner`` search, in order."""
    from benchmarks.e2e.workloads import WORKLOADS, cosearch, route_resources
    from repro.fleet.pool import ConnectionPool

    workload = WORKLOADS["remote_inner"]
    bodies: List[bytes] = []
    send = ConnectionPool.request

    def recording(pool, method, path, body=None, headers=None):
        if path == "/evaluate_layers":
            bodies.append(body)
        return send(pool, method, path, body=body, headers=headers)

    with tempfile.TemporaryDirectory() as workdir, route_resources(
        workload, workdir
    ) as fleet:
        # the replica is forked by now: only this process records
        ConnectionPool.request = recording
        try:
            cosearch(workload, 0, fleet)
        finally:
            ConnectionPool.request = send
    return bodies


class PartTimer:
    """Self time per part of the functions it wraps, while installed."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        #: time spent in wrapped callees, one entry per open wrapped call
        self._inner: List[float] = []
        self._installed: List[tuple] = []

    def wrap(self, owner, name: str, part: str) -> None:
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        seconds, inner = self.seconds, self._inner

        def timed(*args, **kwargs):
            inner.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                seconds[part] += elapsed - inner.pop()
                if inner:
                    inner[-1] += elapsed

        setattr(owner, name, timed)
        self._installed.append((owner, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []


def replay(bodies: List[bytes], timer: Optional[PartTimer]) -> float:
    """Seconds the bodies take through a fresh replica's ``_dispatch``:
    with ``timer``, wall seconds with every part's function wrapped for
    the pass, else CPU seconds."""
    from benchmarks.e2e.workloads import NETWORK
    from repro.costmodel import service
    from repro.fleet.server import ReplicaSpec, build_replica_engine
    from repro.utils import httpcore

    spec = ReplicaSpec(NETWORK)  # what the benchmark's replica serves
    with service.PPAServiceServer(
        build_replica_engine(spec), cache_capacity=spec.cache_capacity
    ) as server:
        requests = []
        for body in bodies:
            request = httpcore.Request(
                "POST", "/evaluate_layers", {"content-length": str(len(body))}
            )
            request.body = body
            requests.append(request)
        _label, route = server._match(requests[0])
        if timer is not None:
            timer.wrap(httpcore.Request, "json", "parse")
            timer.wrap(service, "decode_object", "decode")
            timer.wrap(service.PPAServiceServer, "_evaluate_cached", "cache")
            timer.wrap(server.engine, "evaluate_groups", "kernel")
            timer.wrap(httpcore, "json_reply", "encode")
        dispatch: Callable = server._dispatch
        clock = time.perf_counter if timer is not None else time.process_time
        gc.collect()  # the last pass's garbage is not this pass's work
        try:
            start = clock()
            for request in requests:
                reply = dispatch(route, request)
                if reply.status != 200:
                    raise SystemExit(
                        f"replay answered {reply.status}: {reply.body[:200]!r}"
                    )
            return clock() - start
        finally:
            if timer is not None:
                timer.restore()


def main(arguments: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=5,
                        help="replays per figure (each into a fresh replica)")
    args = parser.parse_args(arguments)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.run import bootstrap_environment

    bootstrap_environment()  # the benchmark's hash seed and BLAS threads
    bodies = record_bodies()
    count = len(bodies)
    print(f"replaying {count} POST /evaluate_layers bodies "
          f"({sum(map(len, bodies))} B) of one seed-0 remote_inner search")
    rows: Dict[str, List[float]] = defaultdict(list)
    for _ in range(args.passes):
        timer = PartTimer()
        timed_total = replay(bodies, timer)
        timer.seconds["other"] = timed_total - sum(timer.seconds.values())
        for part in PARTS:
            rows[part].append(timer.seconds[part])
        rows["total, parts timed"].append(timed_total)
        rows["total, CPU, untimed"].append(replay(bodies, None))
    print(f"{'part':<22}{'us/request':>12}")
    for row, seconds in rows.items():
        print(f"{row:<22}{min(seconds) / count * 1e6:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
