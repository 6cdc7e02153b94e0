"""Count guard: one ``send`` per request, one per reply.

A second small write on a keep-alive socket is what the exchange used to
pay for — the stdlib client flushed head and body separately and so did
the stdlib server — so, in the spirit of the per-step call-count guard in
``tests/mapping/test_step_call_count.py``, this wraps every socket write
in the process and counts them per side of the PPA replica's port: a
search through ``RemotePPAEngine`` must cost exactly one write per request
on the client and one per reply on the server, for ``/evaluate_layer``
and ``/evaluate_layers`` alike.
"""

import socket

import pytest

from repro.costmodel import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.mapping import FlexTensorSearch, GemmMapping


@pytest.fixture()
def writes(monkeypatch):
    """``{(local port, peer port): [bytes written, ...]}`` for every
    ``send``/``sendall`` made through :class:`socket.socket`."""
    log = {}

    def record(original):
        def wrapper(self, data, *args):
            try:
                key = (self.getsockname()[1], self.getpeername()[1])
            except OSError:
                key = None
            log.setdefault(key, []).append(bytes(data))
            return original(self, data, *args)

        return wrapper

    for name in ("send", "sendall"):
        monkeypatch.setattr(
            socket.socket, name, record(getattr(socket.socket, name))
        )
    return log


def _sides(writes, port):
    requests = [w for (_local, peer), ws in writes.items() if peer == port for w in ws]
    replies = [w for (local, _peer), ws in writes.items() if local == port for w in ws]
    return requests, replies


def test_one_write_per_request_and_per_reply(tiny_network, sample_hw, writes):
    with PPAServiceServer(MaestroEngine(tiny_network)) as server:
        remote = RemotePPAEngine(
            tiny_network, server.url, area_fn=spatial_area_mm2
        )
        search = FlexTensorSearch(
            tiny_network, sample_hw, remote, seed=0, batch_size=4
        )
        search.run(24)
        remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        counters = server.metrics.snapshot()["counters"]
        stats = remote.stats()
    served = {
        path: int(counters.get(f"service_requests_total[{path}]", 0))
        for path in ("/evaluate_layer", "/evaluate_layers")
    }
    assert served["/evaluate_layer"] > 0 and served["/evaluate_layers"] > 0
    requests, replies = _sides(writes, server.address[1])
    assert len(requests) == sum(served.values())
    assert len(replies) == sum(served.values())
    # and each write is a whole message: head and body together
    for path, count in served.items():
        line = f"POST {path} HTTP/1.1\r\n".encode("ascii")
        whole = [w for w in requests if w.startswith(line)]
        assert len(whole) == count
        assert all(b"\r\n\r\n{" in w and w.endswith(b"}") for w in whole)
    # a reply body is a JSON object, or — from /evaluate_layer — a result row
    assert all(
        w.startswith(b"HTTP/1.1 200 OK\r\n") and w.endswith((b"}", b"]"))
        for w in replies
    )
    assert stats["pool"]["num_created"] == 1
