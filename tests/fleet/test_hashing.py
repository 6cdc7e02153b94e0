"""Rendezvous hashing: determinism, balance, and minimal remapping."""

import pytest

from repro.fleet.hashing import candidate_key, rank_shards, rendezvous_score

SHARDS = ["shard-0", "shard-1", "shard-2", "shard-3"]
KEYS = [candidate_key(h, f"layer{h % 3}", (h, h * 7, "mn")) for h in range(2000)]


def choose_shard(key, shard_ids):
    """The preferred owner of ``key``: the head of its ranking."""
    return rank_shards(key, shard_ids)[0]


class TestScores:
    def test_deterministic_across_calls(self):
        assert rendezvous_score("k", "s") == rendezvous_score("k", "s")

    def test_key_and_shard_both_matter(self):
        assert rendezvous_score("k1", "s") != rendezvous_score("k2", "s")
        assert rendezvous_score("k", "s1") != rendezvous_score("k", "s2")


class TestRanking:
    def test_ranking_is_permutation(self):
        for key in KEYS[:50]:
            assert sorted(rank_shards(key, SHARDS)) == sorted(SHARDS)

    def test_member_order_irrelevant(self):
        shuffled = list(reversed(SHARDS))
        for key in KEYS[:50]:
            assert choose_shard(key, SHARDS) == choose_shard(key, shuffled)


class TestBalanceAndRemap:
    def test_roughly_balanced(self):
        counts = {shard: 0 for shard in SHARDS}
        for key in KEYS:
            counts[choose_shard(key, SHARDS)] += 1
        for shard, count in counts.items():
            # each of 4 shards should own 25% +- 10 points of 2000 keys
            assert 0.15 < count / len(KEYS) < 0.35, (shard, count)

    def test_removal_remaps_only_the_lost_shards_keys(self):
        """The consistent-hashing contract: survivors keep every key."""
        removed = "shard-2"
        survivors = [shard for shard in SHARDS if shard != removed]
        moved = 0
        for key in KEYS:
            before = choose_shard(key, SHARDS)
            after = choose_shard(key, survivors)
            if before == removed:
                moved += 1
                # orphaned keys land on their rank-2 shard, exactly
                assert after == rank_shards(key, SHARDS)[1]
            else:
                assert after == before  # survivors' keys never move
        assert moved / len(KEYS) == pytest.approx(1 / 4, abs=0.1)

    def test_addition_steals_only_for_itself(self):
        grown = SHARDS + ["shard-4"]
        stolen = 0
        for key in KEYS:
            before = choose_shard(key, SHARDS)
            after = choose_shard(key, grown)
            if after != before:
                stolen += 1
                assert after == "shard-4"  # moves only go to the newcomer
        assert stolen / len(KEYS) == pytest.approx(1 / 5, abs=0.1)


class TestCandidateKey:
    def test_mirrors_cache_key_fields(self):
        key_a = candidate_key("hw1", "conv", (1, 2, 3))
        key_b = candidate_key("hw1", "conv", (1, 2, 3))
        key_c = candidate_key("hw2", "conv", (1, 2, 3))
        assert key_a == key_b
        assert key_a != key_c

    def test_stable_across_processes(self):
        # repr of plain data, no id()s or salted hashes
        assert candidate_key("hw", "l", (4, 8, "mn")) == "('hw', 'l', (4, 8, 'mn'))"
