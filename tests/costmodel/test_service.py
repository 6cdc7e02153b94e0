"""Tests for the REST PPA service and its remote-engine client."""

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.request import Request, urlopen

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import (
    PPAServiceServer,
    RemotePPAEngine,
    decode_object,
    encode_object,
)
from repro.errors import EvaluationError
from repro.hw.ascend import default_ascend_config
from repro.mapping.ascend_mapping import AscendMapping
from repro.mapping.flextensor import FlexTensorSearch
from repro.mapping.gemm_mapping import GemmMapping
from tests.costmodel.transport import FAST, tune


@pytest.fixture()
def server(tiny_network):
    backend = MaestroEngine(tiny_network)
    with PPAServiceServer(backend) as srv:
        yield srv


@pytest.fixture()
def remote(server, tiny_network):
    with RemotePPAEngine(
        tiny_network, server.url, area_fn=spatial_area_mm2
    ) as engine:
        yield engine


class TestCodec:
    def test_spatial_hw_roundtrip(self, sample_hw):
        assert decode_object(encode_object(sample_hw)) == sample_hw

    def test_ascend_hw_roundtrip(self):
        hw = default_ascend_config()
        assert decode_object(encode_object(hw)) == hw

    def test_gemm_mapping_roundtrip(self):
        mapping = GemmMapping(4, 8, 16, loop_order=("k", "m", "n"), unroll=4)
        assert decode_object(encode_object(mapping)) == mapping

    def test_ascend_mapping_roundtrip(self):
        mapping = AscendMapping(4, 8, 16, fuse_output=True)
        assert decode_object(encode_object(mapping)) == mapping

    def test_unknown_type_rejected(self):
        for row in (["Mystery"], [], {"type": "GemmMapping"}, 42):
            with pytest.raises(EvaluationError):
                decode_object(row)

    def test_payload_is_json_serializable(self, sample_hw):
        json.dumps(encode_object(sample_hw))


def _post_one_layer(url, hw):
    """``POST /evaluate_layers`` with one group of one item."""
    item = [encode_object(GemmMapping(4, 8, 4)), "gemm"]
    body = {"groups": [{"hw": encode_object(hw), "items": [item]}]}
    request = Request(
        f"{url}/evaluate_layers",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    return urlopen(request, timeout=5.0)


class TestServer:
    def test_health(self, server, tiny_network):
        with urlopen(f"{server.url}/health") as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["workload"] == tiny_network.name

    def test_evaluate_layer_endpoint(self, server, sample_hw):
        """One layer is a one-item group on the one query route."""
        with _post_one_layer(server.url, sample_hw) as response:
            (entries,) = json.loads(response.read())["results"]
        # a feasible result is the row [latency_s, energy_j, ...]
        (payload,) = entries
        assert isinstance(payload, list) and len(payload) == 6
        assert payload[0] > 0

    def test_unknown_path_is_404(self, server):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urlopen(f"{server.url}/nope")
        assert exc_info.value.code == 404


class TestRemoteEngine:
    def test_matches_local_engine(self, remote, tiny_network, sample_hw):
        local = MaestroEngine(tiny_network)
        mapping = GemmMapping(4, 8, 4)
        remote_result = remote.evaluate_layer(sample_hw, mapping, "gemm")
        local_result = local.evaluate_layer(sample_hw, mapping, "gemm")
        assert remote_result.latency_s == pytest.approx(local_result.latency_s)
        assert remote_result.energy_j == pytest.approx(local_result.energy_j)

    def test_caching_avoids_second_request(self, remote, server, sample_hw):
        mapping = GemmMapping(4, 8, 4)
        remote.evaluate_layer(sample_hw, mapping, "gemm")
        backend_queries = server.engine.num_queries
        remote.evaluate_layer(sample_hw, mapping, "gemm")
        assert server.engine.num_queries == backend_queries  # served from cache
        assert remote.num_cache_hits == 1

    def test_infeasible_transported(self, remote, tiny_network):
        from repro.hw.spatial import edge_design_space

        tiny_hw = edge_design_space().to_config(
            {
                "pe_x": 1,
                "pe_y": 1,
                "l1_bytes": 64,
                "l2_kb": 8,
                "noc_bw": 64,
                "dataflow": "ws",
            }
        )
        result = remote.evaluate_layer(tiny_hw, GemmMapping(32, 64, 48), "gemm")
        assert not result.feasible
        assert np.isinf(result.latency_s)

    def test_full_search_through_service(self, remote, tiny_network, sample_hw):
        """A mapping search can run entirely against the remote engine."""
        search = FlexTensorSearch(tiny_network, sample_hw, remote, seed=0)
        search.run(15)
        assert np.isfinite(search.best_objective)
        assert search.best_ppa.feasible

    def test_health_passthrough(self, remote, tiny_network):
        report = remote.health()
        assert set(report) == {"shard-0"}  # one URL is a fleet of one
        assert report["shard-0"]["status"] == "ok"
        assert report["shard-0"]["workload"] == tiny_network.name

    def test_close_releases_pooled_connections(self, remote, sample_hw):
        remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        assert remote.stats()["pool"]["idle"] == 1
        remote.close()
        assert remote.stats()["pool"]["idle"] == 0
        remote.close()  # idempotent

    def test_context_manager_closes(self, server, tiny_network, sample_hw):
        backend = MaestroEngine(tiny_network)
        with PPAServiceServer(backend) as second, RemotePPAEngine(
            tiny_network,
            [server.url, second.url],
            area_fn=spatial_area_mm2,
            batch_size=1,
        ) as engine:
            engine.evaluate_layers(
                sample_hw, [(GemmMapping(4, 8, 4), "gemm"), (GemmMapping(8, 8, 8), "gemm")]
            )
            assert engine._executor is not None  # two chunks fanned out
            assert engine.stats()["pool"]["idle"] >= 1
            assert any(
                thread.name.startswith("fleet-client")
                for thread in threading.enumerate()
            )
        assert engine._executor is None
        assert engine.stats()["pool"]["idle"] == 0

    def test_url_string_is_the_one_element_list(self, server, tiny_network):
        with RemotePPAEngine(
            tiny_network, server.url, area_fn=spatial_area_mm2
        ) as one, RemotePPAEngine(
            tiny_network, [server.url + "/"], area_fn=spatial_area_mm2
        ) as listed:
            assert len(one.router) == len(listed.router) == 1
            assert one.router.shards[0].url == listed.router.shards[0].url


# --------------------------------------------------------------------- helpers
_OPENED = []


@pytest.fixture(autouse=True)
def _fast_transport(monkeypatch):
    """Real-time transport constants tuned so failure tests stay fast; a
    test tunes them further itself."""
    tune(monkeypatch, **FAST)
    yield
    while _OPENED:
        _OPENED.pop().close()


def _fast_remote(network, url, **overrides):
    """A client with a short socket timeout, closed after the test."""
    kwargs = dict(timeout_s=0.5)
    kwargs.update(overrides)
    engine = RemotePPAEngine(network, url, area_fn=spatial_area_mm2, **kwargs)
    _OPENED.append(engine)
    return engine


def _gated(remote):
    """A cheap ordinary request — breaker-gated, retried, counted — to the
    one shard: its ``GET /metrics`` (``health()`` bypasses the breaker)."""
    return remote._shard_request(remote.router.shards[0], "/metrics", None, None)


@contextlib.contextmanager
def _dead_url():
    """A URL nothing listens on (bind, grab the port, close)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    yield f"http://127.0.0.1:{port}"


@contextlib.contextmanager
def _silent_url():
    """A socket that accepts connections but never answers (client times out)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(4)
    try:
        yield f"http://127.0.0.1:{sock.getsockname()[1]}"
    finally:
        sock.close()


@contextlib.contextmanager
def _scripted_url(script):
    """Serve canned responses in order; after the script, repeat the last.

    Entries: ``("status", body_str)`` — e.g. ``(500, '{"error": "down"}')``
    or ``(200, "definitely not json")``.
    """
    remaining = list(script)
    lock = threading.Lock()
    hits = {"count": 0}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def _serve(self):
            with lock:
                hits["count"] += 1
                status, body = remaining.pop(0) if len(remaining) > 1 else remaining[0]
            payload = body.encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        do_GET = _serve
        do_POST = _serve

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", hits
    finally:
        httpd.shutdown()
        httpd.server_close()


MAPPING = GemmMapping(4, 8, 4)


class TestTransportErrorMapping:
    """Satellite (a): network-level failures surface as EvaluationError."""

    def test_dead_server_raises_evaluation_error(self, tiny_network, sample_hw):
        with _dead_url() as url:
            remote = _fast_remote(tiny_network, url)
            with pytest.raises(EvaluationError, match="network failure"):
                remote.evaluate_layer(sample_hw, MAPPING, "gemm")

    def test_dead_server_health_raises_evaluation_error(self, tiny_network):
        with _dead_url() as url:
            remote = _fast_remote(tiny_network, url)
            # the probe reports the shard down; a gated request raises
            assert remote.health() == {"shard-0": None}
            with pytest.raises(EvaluationError, match="network failure"):
                _gated(remote)

    def test_slow_server_times_out_as_evaluation_error(self, tiny_network, sample_hw):
        with _silent_url() as url:
            remote = _fast_remote(tiny_network, url, timeout_s=0.2)
            with pytest.raises(EvaluationError, match="network failure"):
                remote.evaluate_layer(sample_hw, MAPPING, "gemm")

    def test_malformed_json_reply_raises_evaluation_error(
        self, tiny_network, sample_hw
    ):
        with _scripted_url([(200, "definitely not json")]) as (url, _hits):
            remote = _fast_remote(tiny_network, url)
            with pytest.raises(EvaluationError, match="network failure"):
                remote.evaluate_layer(sample_hw, MAPPING, "gemm")

    def test_5xx_reply_raises_evaluation_error(self, tiny_network, sample_hw):
        with _scripted_url([(500, '{"error": "exploded"}')]) as (url, _hits):
            remote = _fast_remote(tiny_network, url)
            with pytest.raises(EvaluationError, match="service error 500"):
                remote.evaluate_layer(sample_hw, MAPPING, "gemm")


class TestNetworkRetries:
    def test_recovers_after_transient_500(self, tiny_network, monkeypatch):
        ok = json.dumps({"status": "ok", "workload": tiny_network.name})
        script = [(500, '{"error": "warming up"}'), (500, '{"error": "still"}'),
                  (200, ok)]
        tune(monkeypatch, max_network_retries=3)
        with _scripted_url(script) as (url, hits):
            remote = _fast_remote(tiny_network, url)
            assert _gated(remote)["status"] == "ok"
            assert remote.num_network_retries == 2
            assert hits["count"] == 3

    def test_retries_exhausted_raises(self, tiny_network, monkeypatch):
        tune(monkeypatch, max_network_retries=2)
        with _scripted_url([(500, '{"error": "down"}')]) as (url, hits):
            remote = _fast_remote(tiny_network, url)
            with pytest.raises(EvaluationError):
                _gated(remote)
            assert hits["count"] == 3  # initial try + 2 retries

    def test_4xx_is_not_retried(self, tiny_network, sample_hw, monkeypatch):
        tune(monkeypatch, max_network_retries=3)
        with _scripted_url([(400, '{"error": "bad layer"}')]) as (url, hits):
            remote = _fast_remote(tiny_network, url)
            with pytest.raises(EvaluationError, match="rejected"):
                remote.evaluate_layer(sample_hw, MAPPING, "gemm")
            assert hits["count"] == 1
            assert remote.num_network_retries == 0

    def test_backoff_grows_and_caps(self, tiny_network, monkeypatch):
        tune(monkeypatch, backoff_base_s=0.1, backoff_max_s=0.25, jitter_fraction=0.0)
        remote = _fast_remote(tiny_network, "http://127.0.0.1:1")
        assert remote._backoff_delay(1) == pytest.approx(0.1)
        assert remote._backoff_delay(2) == pytest.approx(0.2)
        assert remote._backoff_delay(3) == pytest.approx(0.25)  # capped
        assert remote._backoff_delay(9) == pytest.approx(0.25)

    def test_jitter_stays_within_fraction(self, tiny_network, monkeypatch):
        tune(monkeypatch, backoff_base_s=0.1, backoff_max_s=1.0, jitter_fraction=0.5)
        remote = _fast_remote(tiny_network, "http://127.0.0.1:1")
        for _ in range(50):
            delay = remote._backoff_delay(1)
            assert 0.1 <= delay <= 0.15


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self, tiny_network, monkeypatch):
        tune(monkeypatch, breaker_threshold=2, breaker_cooldown_s=60.0)
        with _dead_url() as url:
            remote = _fast_remote(tiny_network, url)
            for _ in range(2):
                with pytest.raises(EvaluationError, match="network failure"):
                    _gated(remote)
            # breaker now open: fails fast without touching the network
            with pytest.raises(EvaluationError, match="circuit breaker open"):
                _gated(remote)
            assert remote.num_circuit_rejections == 1
            assert remote.metrics.counter_value("remote_circuit_opened_total") == 1

    def test_half_open_probe_recovers(self, tiny_network, monkeypatch):
        ok = json.dumps({"status": "ok", "workload": tiny_network.name})
        script = [(500, '{"error": "down"}'), (200, ok)]
        tune(monkeypatch, breaker_threshold=1, breaker_cooldown_s=0.05)
        with _scripted_url(script) as (url, _hits):
            remote = _fast_remote(tiny_network, url)
            with pytest.raises(EvaluationError):
                _gated(remote)  # opens the breaker
            with pytest.raises(EvaluationError, match="circuit breaker open"):
                _gated(remote)
            time.sleep(0.1)  # cooldown elapses -> half-open
            assert _gated(remote)["status"] == "ok"  # probe succeeds, closes
            assert _gated(remote)["status"] == "ok"

    def test_semantic_rejection_does_not_trip_breaker(
        self, tiny_network, sample_hw, monkeypatch
    ):
        ok = json.dumps({"status": "ok", "workload": tiny_network.name})
        script = [(400, '{"error": "bad mapping"}')] * 3 + [(200, ok)]
        tune(monkeypatch, breaker_threshold=1, breaker_cooldown_s=60.0)
        with _scripted_url(script) as (url, _hits):
            remote = _fast_remote(tiny_network, url)
            for _ in range(3):
                with pytest.raises(EvaluationError, match="rejected"):
                    remote.evaluate_layer(sample_hw, MAPPING, "gemm")
            # breaker never opened: the next request reaches the service
            assert _gated(remote)["status"] == "ok"
            assert remote.num_circuit_rejections == 0


class TestServerErrorPaths:
    """Satellite (b): malformed payloads get JSON errors, never stack dumps."""

    def _post(self, url, path, payload, raw=None):
        data = raw if raw is not None else json.dumps(payload).encode()
        request = Request(f"{url}{path}", data=data,
                          headers={"Content-Type": "application/json"})
        import urllib.error

        try:
            with urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_invalid_json_body_is_400(self, server):
        status, payload = self._post(server.url, "/evaluate_layers", None,
                                     raw=b"{not json")
        assert status == 400
        assert "invalid JSON" in payload["error"]

    def test_missing_field_is_400(self, server, sample_hw):
        status, payload = self._post(
            server.url, "/evaluate_layers", {"groups": [{"hw": encode_object(sample_hw)}]}
        )
        assert status == 400
        assert "error" in payload

    def test_unexpected_dataclass_fields_are_500_json(self, server, sample_hw):
        bogus_hw = encode_object(sample_hw) + ["bogus_field"]
        status, payload = self._post(
            server.url,
            "/evaluate_layers",
            {"groups": [{"hw": bogus_hw, "items": [[encode_object(MAPPING), "gemm"]]}]},
        )
        assert status == 500
        assert payload["error"].startswith("internal error")

    def test_wrong_shape_payload_is_json_error(self, server):
        status, payload = self._post(
            server.url, "/evaluate_layers",
            {"groups": [{"hw": 42, "items": [[[], "gemm"]]}]},
        )
        assert status in (400, 500)
        assert "error" in payload

    def test_errors_counted_in_metrics(self, server):
        self._post(server.url, "/evaluate_layers", None, raw=b"{not json")
        with urlopen(f"{server.url}/metrics") as response:
            snapshot = json.loads(response.read())
        assert snapshot["metrics"]["counters"]["service_errors_total"] >= 1


class TestBatchEndpoint:
    def _items(self, mappings, layer="gemm"):
        return [[encode_object(m), layer] for m in mappings]

    def test_batch_matches_single_layer_results(self, server, remote, tiny_network,
                                                sample_hw):
        local = MaestroEngine(tiny_network)
        requests = [
            (GemmMapping(4, 8, 4), "gemm"),
            (GemmMapping(8, 16, 8), "gemm"),
            (GemmMapping(4, 8, 4), "conv"),
        ]
        batched = remote.evaluate_layers(sample_hw, requests)
        for (mapping, layer), result in zip(requests, batched):
            expected = local.evaluate_layer(sample_hw, mapping, layer)
            assert result.latency_s == expected.latency_s
            assert result.energy_j == expected.energy_j

    def test_batch_uses_cache(self, server, remote, sample_hw):
        requests = [(GemmMapping(4, 8, 4), "gemm"), (GemmMapping(8, 16, 8), "gemm")]
        remote.evaluate_layers(sample_hw, requests)
        backend_queries = server.engine.num_queries
        results = remote.evaluate_layers(sample_hw, requests)
        assert server.engine.num_queries == backend_queries  # all cached
        assert remote.num_cache_hits == 2
        assert all(result.feasible for result in results)

    def test_batch_chunks_by_batch_size(self, server, tiny_network, sample_hw):
        """``batch_size`` cuts a fleet's shares so they overlap; a lone
        replica has nothing to overlap with and gets the call as one POST."""
        requests = [(GemmMapping(4, 8, 4, unroll=u), "gemm") for u in (1, 2, 4, 8)]
        remote = _fast_remote(tiny_network, server.url, batch_size=2)
        remote.evaluate_layers(sample_hw, requests)
        assert remote.metrics.counter_value("remote_requests_total") == 1
        with PPAServiceServer(MaestroEngine(tiny_network)) as second:
            fleet = _fast_remote(
                tiny_network, [server.url, second.url], batch_size=1
            )
            fleet.evaluate_layers(sample_hw, requests)
            assert fleet.metrics.counter_value("remote_requests_total") == 4
            fleet.close()

    def test_failed_chunk_keeps_earlier_chunks_and_stops(self, tiny_network,
                                                         sample_hw):
        """A lone replica gets one request per engine call; a transport
        failure keeps what earlier calls brought back and nothing of its
        own (``tests/core/test_lockstep_round.py`` has the failure
        part-way through one reply)."""
        entry = [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]
        script = [(200, json.dumps({"results": [[entry, entry]]})),
                  (500, '{"error": "down"}')]
        requests = [(GemmMapping(4, 8, 4, unroll=u), layer)
                    for layer in ("gemm", "conv") for u in (1, 2, 4)]
        with _scripted_url(script) as (url, hits):
            remote = _fast_remote(tiny_network, url, batch_size=2)
            sink_calls = []
            remote.sample_sink = lambda hw, samples: sink_calls.append(samples)
            remote.evaluate_layers(sample_hw, requests[:2])
            with pytest.raises(EvaluationError, match="service error 500"):
                remote.evaluate_layers(sample_hw, requests)
            assert hits["count"] == 2  # the four misses left as one request
            assert remote._executor is None
            for mapping, layer in requests[:2]:
                assert remote.evaluate_layer(sample_hw, mapping, layer).latency_s == 1.0
            assert hits["count"] == 2  # both served from the client cache
            # the sink saw exactly what reached the cache: the first call's
            # two results, in miss order, in one call
            (samples,) = sink_calls
            assert [(mapping, layer) for layer, mapping, _s, _r in samples] == (
                requests[:2]
            )
            assert [result.latency_s for _l, _m, _s, result in samples] == [1.0, 1.0]

    def test_batch_bad_item_raises_but_good_items_cached(self, server, tiny_network,
                                                         sample_hw):
        from repro.workloads.layers import Gemm
        from repro.workloads.network import Network

        # the client knows a layer the server does not: server-side rejection
        client_network = Network(
            name=tiny_network.name,
            layers=tiny_network.layers + (Gemm(name="ghost", m=8, n=8, k=8),),
            family="test",
            year=2023,
        )
        remote = _fast_remote(client_network, server.url)
        sink_calls = []
        remote.sample_sink = lambda hw, samples: sink_calls.append(samples)
        requests = [(GemmMapping(4, 8, 4), "gemm"), (GemmMapping(4, 8, 4), "ghost")]
        with pytest.raises(EvaluationError, match="ghost"):
            remote.evaluate_layers(sample_hw, requests)
        # the good item was still cached by the partial batch
        backend_queries = server.engine.num_queries
        cached = remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        assert server.engine.num_queries == backend_queries
        assert remote.num_cache_hits == 1
        # ... and it is the one sample the sink was handed, in one call
        shape = remote.layer_shapes["gemm"][0]
        assert sink_calls == [[("gemm", GemmMapping(4, 8, 4), shape, cached)]]

    def test_batch_charges_clock_per_query(self, server, remote, sample_hw):
        requests = [(GemmMapping(4, 8, 4), "gemm"), (GemmMapping(8, 16, 8), "gemm")]
        remote.evaluate_layers(sample_hw, requests)
        assert remote.clock.now_s == pytest.approx(2 * remote.eval_cost_s)
        assert remote.num_queries == 2

    def test_server_side_per_item_errors(self, server, sample_hw):
        payload = {"groups": [{
            "hw": encode_object(sample_hw),
            "items": self._items([GemmMapping(4, 8, 4)], layer="gemm")
            + self._items([GemmMapping(4, 8, 4)], layer="missing"),
        }]}
        request = Request(f"{server.url}/evaluate_layers",
                          data=json.dumps(payload).encode(),
                          headers={"Content-Type": "application/json"})
        with urlopen(request) as response:
            reply = json.loads(response.read())
        (entries,) = reply["results"]
        assert isinstance(entries[0], list)  # a result row
        assert set(entries[1]) == {"error"}
        assert "missing" in entries[1]["error"]

    def test_items_must_be_list(self, server, sample_hw):
        import urllib.error

        hw = encode_object(sample_hw)
        for body in (
            {"groups": "nope"},
            {"groups": [{"hw": hw, "items": "nope"}]},
            {"hw": hw, "items": []},  # the one-hw body the endpoint once took
        ):
            request = Request(f"{server.url}/evaluate_layers",
                              data=json.dumps(body).encode(),
                              headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urlopen(request)
            assert exc_info.value.code == 400


class TestCandidatesEndpoint:
    """Candidate batches of one layer ride POST /evaluate_layers chunks."""

    def _mappings(self, count):
        return [GemmMapping(4, 8, 4, unroll=u) for u in (1, 2, 4, 8)][:count]

    def _post_items(self, server, sample_hw, items):
        """One group's reply entries."""
        payload = {"groups": [{"hw": encode_object(sample_hw), "items": items}]}
        request = Request(f"{server.url}/evaluate_layers",
                          data=json.dumps(payload).encode(),
                          headers={"Content-Type": "application/json"})
        with urlopen(request) as response:
            (entries,) = json.loads(response.read())["results"]
        return {"results": entries}

    def test_remote_candidates_match_local(self, server, remote, tiny_network,
                                           sample_hw):
        local = MaestroEngine(tiny_network)
        mappings = self._mappings(4)
        batched = remote.evaluate_layers(sample_hw, [(m, "gemm") for m in mappings])
        for mapping, result in zip(mappings, batched):
            assert result == local.evaluate_layer(sample_hw, mapping, "gemm")

    def test_candidates_ship_as_chunked_requests(self, server, tiny_network,
                                                 sample_hw):
        with PPAServiceServer(MaestroEngine(tiny_network)) as second:
            remote = _fast_remote(
                tiny_network, [server.url, second.url], batch_size=2
            )
            remote.evaluate_layers(sample_hw, [(m, "gemm") for m in self._mappings(4)])
            served = [server.engine.num_queries, second.engine.num_queries]
            # each replica's share leaves in chunks of at most 2
            assert remote.metrics.counter_value("remote_requests_total") == sum(
                -(-count // 2) for count in served
            )
            assert sum(served) == 4
            remote.close()

    def test_candidates_cache_hits_stay_local(self, server, remote, sample_hw):
        requests = [(m, "gemm") for m in self._mappings(3)]
        remote.evaluate_layers(sample_hw, requests)
        before = remote.metrics.counter_value("remote_requests_total")
        remote.evaluate_layers(sample_hw, requests)
        assert remote.metrics.counter_value("remote_requests_total") == before
        assert remote.num_cache_hits == 3

    def test_server_vectorizes_candidate_batch(self, server, sample_hw):
        """One request is one engine call, whatever layers it mixes."""
        backend_batches = server.engine.num_batch_queries
        items = [
            [encode_object(m), layer]
            for m, layer in zip(self._mappings(4), ("gemm", "gemm", "conv", "gemm"))
        ]
        reply = self._post_items(server, sample_hw, items)
        assert all(isinstance(entry, list) for entry in reply["results"])
        assert server.engine.num_batch_queries == backend_batches + 1
        assert server.engine.num_queries == 4

    def test_bad_item_isolated_per_entry(self, server, tiny_network, sample_hw):
        """An unknown layer and an undecodable mapping fail alone; the
        valid items around them still share a single engine call."""
        good = self._mappings(3)
        items = [
            [encode_object(good[0]), "gemm"],
            [encode_object(good[1]), "missing"],
            [["Mystery"], "gemm"],
            [encode_object(good[2]), "conv"],
        ]
        batches = server.engine.metrics.counter_value("engine_batch_queries_total")
        reply = self._post_items(server, sample_hw, items)
        assert [isinstance(entry, list) for entry in reply["results"]] == [
            True, False, False, True,
        ]
        assert "missing" in reply["results"][1]["error"]
        assert "Mystery" in reply["results"][2]["error"]
        assert (
            server.engine.metrics.counter_value("engine_batch_queries_total")
            == batches + 1
        )
        assert server.engine.num_queries == 2
        local = MaestroEngine(tiny_network)
        assert reply["results"][3][0] == local.evaluate_layer(
            sample_hw, good[2], "conv"
        ).latency_s


class TestMetricsEndpoint:
    def test_engine_and_service_stats_exposed(self, server, remote, sample_hw):
        remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")  # cached
        # a request is timed after its reply has left: wait for that
        deadline = time.monotonic() + 5.0
        while "service_request_seconds" not in server.metrics.snapshot()["histograms"]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with urlopen(f"{server.url}/metrics") as response:
            snapshot = json.loads(response.read())
        engine = snapshot["engine"]
        assert engine["engine"] == "MaestroEngine"
        assert engine["num_queries"] >= 1
        assert engine["cache_capacity"] is not None
        counters = snapshot["metrics"]["counters"]
        assert counters["service_requests_total[/evaluate_layers]"] >= 1
        histograms = snapshot["metrics"]["histograms"]
        assert histograms["service_request_seconds"]["count"] >= 1

    def test_remote_stats_merge(self, remote, server, sample_hw):
        remote.evaluate_layer(sample_hw, GemmMapping(4, 8, 4), "gemm")
        stats = remote.stats()
        assert stats["engine"] == "RemotePPAEngine"
        assert stats["num_queries"] == 1
        assert stats["num_network_retries"] == 0
        assert stats["num_circuit_rejections"] == 0
        assert stats["fleet"]["replicas"] == 1
        (shard,) = stats["fleet"]["shards"]
        assert shard["url"] == server.url
        # the pool block totals the shards' connection counters
        assert stats["pool"]["num_created"] == shard["pool"]["num_created"] == 1
        assert stats["pool"]["num_stale_retries"] == 0


class TestClientValidation:
    def test_invalid_batch_size(self, tiny_network):
        with pytest.raises(EvaluationError):
            _fast_remote(tiny_network, "http://x", batch_size=0)

    def test_invalid_max_inflight(self, tiny_network):
        with pytest.raises(EvaluationError):
            _fast_remote(tiny_network, "http://x", max_inflight=0)


class TestGracefulDrain:
    def test_draining_returns_fast_503(self, tiny_network, sample_hw):
        import urllib.error

        with PPAServiceServer(MaestroEngine(tiny_network)) as server:
            server.begin_drain()
            assert server.draining
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _post_one_layer(server.url, sample_hw)
            assert exc_info.value.code == 503
            assert json.loads(exc_info.value.read())["error"] == "service draining"
            assert (
                server.metrics.counter_value("service_drain_rejections_total")
                == 1
            )

    def test_drain_waits_for_inflight_requests(self, tiny_network, sample_hw):
        """An in-flight request completes; only then does drain() return."""
        started = threading.Event()

        class SlowEngine(MaestroEngine):
            def evaluate_groups(self, groups):
                started.set()
                time.sleep(0.3)
                return super().evaluate_groups(groups)

        with PPAServiceServer(SlowEngine(tiny_network)) as server:
            outcome = {}

            def inflight():
                with _post_one_layer(server.url, sample_hw) as response:
                    outcome["payload"] = json.loads(response.read())

            worker = threading.Thread(target=inflight)
            worker.start()
            assert started.wait(timeout=5.0)
            server.begin_drain()
            assert server.inflight_requests >= 1
            assert server.drain(timeout_s=5.0)
            worker.join(timeout=5.0)
            (entries,) = outcome["payload"]["results"]
            assert entries[0][0] > 0  # a feasible result row
            assert server.inflight_requests == 0

    def test_stop_is_drain_then_shutdown(self, tiny_network):
        server = PPAServiceServer(MaestroEngine(tiny_network)).start()
        url = server.url
        server.stop()
        with pytest.raises(OSError):
            urlopen(f"{url}/health", timeout=0.5)

    def test_health_keeps_serving_during_drain(self, tiny_network):
        """GETs are rejected too -- a draining replica must read as down."""
        import urllib.error

        with PPAServiceServer(MaestroEngine(tiny_network)) as server:
            server.begin_drain()
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urlopen(f"{server.url}/health", timeout=2.0)
            assert exc_info.value.code == 503
