"""Count guard: one ``send`` per request, one per reply.

A second small write on a keep-alive socket is what the exchange used to
pay for — the stdlib client flushed head and body separately and so did
the stdlib server — so, in the spirit of the per-step call-count guard in
``tests/mapping/test_step_call_count.py``, this wraps every socket write
in the process and counts them per side of the PPA replica's port: a
search through ``RemotePPAEngine`` must cost exactly one write per request
on the client and one per reply on the server, on the service's one query
route, ``/evaluate_layers``: a one-item call and an ``aggregate`` miss
are one-item exchanges on it too.
"""

import http.client
import socket

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import PPAServiceServer, RemotePPAEngine
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gemm_mapping import GemmMapping
from tests.costmodel.network_ppa import network_ppa


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
        counters = server.metrics.snapshot()["counters"]
        stats = remote.stats()
    served = int(counters["service_requests_total[/evaluate_layers]"])
    assert served > 0
    assert sum(
        value for name, value in counters.items()
        if name.startswith("service_requests_total[")
    ) == served
    requests, replies = _sides(writes, server.address[1])
    assert len(requests) == served
    assert len(replies) == served
    # and each write is a whole message: head and body together
    assert all(
        w.startswith(b"POST /evaluate_layers HTTP/1.1\r\n")
        and b"\r\n\r\n{" in w and w.endswith(b"}")
        for w in requests
    )
    assert all(
        w.startswith(b"HTTP/1.1 200 OK\r\n") and w.endswith(b"}") for w in replies
    )
    assert stats["pool"]["num_created"] == 1


def test_one_item_and_aggregate_misses_send_one_batch_request(
    tiny_network, sample_hw, writes
):
    """A one-item call and a network's layers each leave as one POST; the
    client keeps no cache, so pricing the network again is one more."""
    mappings = {
        layer.name: GemmMapping(2, 2, 2)
        for layer in tiny_network.layers
    }
    with PPAServiceServer(MaestroEngine(tiny_network)) as server, RemotePPAEngine(
        tiny_network, server.url, area_fn=spatial_area_mm2
    ) as remote:
        port = server.address[1]
        remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        after_layer = list(_sides(writes, port)[0])
        ppa = network_ppa(remote, sample_hw, mappings)
        requests = _sides(writes, port)[0]
        assert network_ppa(remote, sample_hw, mappings) == ppa
        assert len(_sides(writes, port)[0]) == len(requests) + 1
        assert server.num_cache_hits == len(mappings)  # the replica's
    assert ppa == network_ppa(MaestroEngine(tiny_network), sample_hw, mappings)
    assert len(after_layer) == 1
    assert len(requests) == 2
    assert all(w.startswith(b"POST /evaluate_layers HTTP/1.1\r\n") for w in requests)
    assert remote.num_queries == 1 + 2 * len(mappings)


@pytest.mark.parametrize("path", ["/evaluate_layer", "/aggregate"])
def test_removed_post_routes_answer_404(tiny_network, path):
    with PPAServiceServer(MaestroEngine(tiny_network)) as server:
        connection = http.client.HTTPConnection(*server.address, timeout=5)
        try:
            connection.request("POST", path, body=b"{}")
            assert connection.getresponse().status == 404
        finally:
            connection.close()
