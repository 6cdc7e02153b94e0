"""Shard router: stable placement, failover, health checks, down TTLs."""

import socket

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.service import PPAServiceServer
from repro.errors import EvaluationError
from repro.fleet.router import ShardRouter

KEYS = [f"key-{i}" for i in range(300)]


def _free_url() -> str:
    """A URL nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


@pytest.fixture()
def router():
    instance = ShardRouter(
        [_free_url() for _ in range(3)], breaker_threshold=2,
        breaker_cooldown_s=30.0,
    )
    yield instance
    instance.close()


class TestPlacement:
    def test_no_urls_rejected(self):
        with pytest.raises(EvaluationError):
            ShardRouter([])

    def test_duplicate_urls_deduped(self):
        url = _free_url()
        router = ShardRouter([url, url + "/", url])
        assert len(router) == 1
        router.close()

    def test_route_deterministic(self, router):
        first = {key: router.route(key).name for key in KEYS}
        second = {key: router.route(key).name for key in KEYS}
        assert first == second

    def test_every_shard_owns_keys(self, router):
        owners = {router.route(key).name for key in KEYS}
        assert owners == {"shard-0", "shard-1", "shard-2"}

    def test_ranking_covers_all_shards(self, router):
        ranked = router.ranking("some-key")
        assert sorted(shard.name for shard in ranked) == [
            "shard-0", "shard-1", "shard-2",
        ]


class TestSoleMember:
    """One member: nothing to place, so nothing is hashed or polled."""

    def test_route_and_ranking_skip_hashing(self, monkeypatch):
        import repro.fleet.hashing as hashing

        def no_hashing(key, shard_id):
            raise AssertionError("a sole member must not be scored")

        monkeypatch.setattr(hashing, "rendezvous_score", no_hashing)
        router = ShardRouter([_free_url()])
        (sole,) = router.shards
        assert router.ranking("any-key") == [sole]
        assert router.route("any-key") is sole
        # ... and it is the answer whatever its state: who else is there?
        sole.mark_down("outage", ttl_s=60.0)
        assert router.route("any-key") is sole
        assert router.num_failovers == 0
        router.close()


class TestFailover:
    def test_down_shard_keys_remap_stably(self, router):
        owners_before = {key: router.route(key).name for key in KEYS}
        down = router.shards[1]
        down.mark_down("test", ttl_s=60.0)
        for key in KEYS:
            now = router.route(key)
            if owners_before[key] == down.name:
                # orphaned keys fall to their rank-2 shard, exactly
                assert now.name == router.ranking(key)[1].name
            else:
                assert now.name == owners_before[key]  # everyone else stays
        assert router.num_failovers > 0

    def test_keys_snap_back_on_recovery(self, router):
        owners_before = {key: router.route(key).name for key in KEYS}
        router.shards[1].mark_down("test", ttl_s=60.0)
        router.route(KEYS[0])
        router.shards[1].mark_up()
        assert {key: router.route(key).name for key in KEYS} == owners_before

    def test_down_ttl_expires(self, router):
        shard = router.shards[0]
        shard.mark_down("blip", ttl_s=0.0)
        assert shard.available()

    def test_open_breaker_excludes_shard(self, router):
        shard = router.shards[2]
        shard.breaker.record(False)
        shard.breaker.record(False)  # threshold=2 -> open
        assert not shard.available()
        for key in KEYS:
            assert router.route(key).name != shard.name

    def test_failover_count_is_exact_across_threads(self, router):
        import threading

        shard = router.shards[0]
        threads = [
            threading.Thread(
                target=lambda: [router.count_failover(shard) for _ in range(500)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert router.num_failovers == 8 * 500
        assert router.metrics.counter_value(
            "fleet_failovers_total[shard=shard-0]"
        ) == 8 * 500

    def test_all_down_returns_owner(self, router):
        for shard in router.shards:
            shard.mark_down("outage", ttl_s=60.0)
        key = KEYS[0]
        assert router.route(key).name == router.ranking(key)[0].name


class TestHealthCheck:
    def test_live_and_dead_shards_flagged(self, tiny_network):
        with PPAServiceServer(MaestroEngine(tiny_network)) as live:
            router = ShardRouter([live.url, _free_url()])
            report = router.health_check()
            assert report["shard-0"]["status"] == "ok"
            assert report["shard-1"] is None
            assert router.shards[0].available()
            assert not router.shards[1].available()
            assert (
                router.metrics.counter_value(
                    "fleet_shard_down_total[shard=shard-1]"
                ) == 1
            )
            router.close()

    def test_health_check_recovers_breaker(self, tiny_network):
        with PPAServiceServer(MaestroEngine(tiny_network)) as live:
            router = ShardRouter([live.url], breaker_threshold=1)
            router.shards[0].breaker.record(False)
            assert not router.shards[0].available()
            router.health_check()
            assert router.shards[0].available()
            router.close()
