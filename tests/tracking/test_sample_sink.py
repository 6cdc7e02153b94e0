"""The engine's ``sample_sink`` protocol and the journal sink on it.

One call per engine call — ``sink(hw, samples)`` — carrying exactly the
misses whose results reached the cache, in miss order; the journal sink
turns one call into one group commit.
"""

import json
from collections import Counter

import pytest

from repro.core.multiworkload import multi_workload_trial_factory
from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.errors import EvaluationError
from repro.mapping.gemm_mapping import GemmMapping
from repro.tracking.journal import EventJournal, read_events
from repro.tracking.tracker import JournalSampleSink
import repro.tracking.tracker as tracker

MAPPINGS = [GemmMapping(4, 8, 4, unroll=u) for u in (1, 2, 4, 8)]


def _recording_sink(calls):
    def sink(hw, samples):
        calls.append((hw, list(samples)))

    return sink


def _unico(network, space, engine, **config):
    defaults = dict(batch_size=4, max_iterations=2, max_budget=24)
    defaults.update(config)
    return Unico(
        space, network, engine, UnicoConfig(**defaults), power_cap_w=100.0, seed=11
    )


class TestProtocol:
    def test_scalar_query_passes_a_one_element_list(self, tiny_engine, sample_hw):
        calls = []
        tiny_engine.sample_sink = _recording_sink(calls)
        result = tiny_engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        tiny_engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")  # a hit
        shape = tiny_engine.layer_shapes["gemm"][0]
        assert calls == [(sample_hw, [("gemm", MAPPINGS[0], shape, result)])]

    def test_batch_is_one_call_and_an_all_hit_batch_is_none(
        self, tiny_engine, sample_hw
    ):
        calls = []
        tiny_engine.sample_sink = _recording_sink(calls)
        requests = [(m, "gemm") for m in MAPPINGS] + [(MAPPINGS[0], "conv")]
        results = tiny_engine.evaluate_layers(sample_hw, requests)
        tiny_engine.evaluate_layers(sample_hw, requests)
        assert len(calls) == 1
        assert [(name, mapping) for name, mapping, _s, _r in calls[0][1]] == [
            (layer_name, mapping) for mapping, layer_name in requests
        ]
        assert [result for _n, _m, _s, result in calls[0][1]] == results

    @pytest.mark.parametrize("stored", [0, 1, 3])
    def test_part_way_failure_hands_over_what_was_stored(
        self, tiny_network, sample_hw, stored
    ):
        """A hook raising at miss position k: the k results before it are
        cached and reach the sink, in miss order, in one call."""

        class FailsPartWay(MaestroEngine):
            armed = False

            def _compute_misses(self, hw, misses):
                for position, result in enumerate(
                    super()._compute_misses(hw, misses)
                ):
                    if self.armed and position == stored:
                        raise EvaluationError(f"down at {position}")
                    yield result

        engine = FailsPartWay(tiny_network)
        calls = []
        engine.sample_sink = _recording_sink(calls)
        warm = engine.evaluate_layer(sample_hw, MAPPINGS[0], "conv")
        engine.armed = True
        del calls[:]
        # position 1 is a hit, so miss order skips it
        requests = [(MAPPINGS[0], "gemm"), (MAPPINGS[0], "conv")] + [
            (m, "gemm") for m in MAPPINGS[1:]
        ]
        misses = [requests[0]] + requests[2:]
        with pytest.raises(EvaluationError, match=f"down at {stored}"):
            engine.evaluate_layers(sample_hw, requests)
        assert warm.feasible
        assert len(calls) == (1 if stored else 0)
        handed = calls[0][1] if calls else []
        assert [(mapping, name) for name, mapping, _s, _r in handed] == misses[:stored]
        # exactly those are cached: re-asking them computes nothing new
        hits = engine.num_cache_hits
        for (mapping, layer_name), (_n, _m, _s, result) in zip(misses, handed):
            assert engine.evaluate_layer(sample_hw, mapping, layer_name) is result
        assert engine.num_cache_hits == hits + stored
        assert len(calls) == (1 if stored else 0)
        assert (
            engine.hw_key(sample_hw), misses[stored][1], misses[stored][0].key()
        ) not in engine._cache


class TestJournalSink:
    def test_one_engine_call_is_one_group(self, tiny_engine, sample_hw, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            tiny_engine.sample_sink = JournalSampleSink(journal)
            tiny_engine.evaluate_layers(sample_hw, [(m, "gemm") for m in MAPPINGS])
            tiny_engine.evaluate_layer(sample_hw, MAPPINGS[0], "pw")
        events = read_events(path).events
        assert [e["seq"] for e in events] == list(range(5))
        assert [e["layer"] for e in events] == ["gemm"] * 4 + ["pw"]
        assert [e["mapping"][5] for e in events[:4]] == [1, 2, 4, 8]

    def test_hw_fragment_follows_the_hw_object(
        self, tiny_engine, edge_space, sample_hw, tmp_path, monkeypatch
    ):
        """The fragment is encoded once per hw object, never reused across
        two: groups interleaved A, B, A, B encode twice."""
        other = edge_space.sample(3)
        assert vars(other) != vars(sample_hw)
        encoded = []
        real_hw_text = tracker._hw_text

        def counting_hw_text(hw):
            encoded.append(hw)
            return real_hw_text(hw)

        monkeypatch.setattr(tracker, "_hw_text", counting_hw_text)
        path = tmp_path / "j.jsonl"
        with EventJournal(path) as journal:
            tiny_engine.sample_sink = JournalSampleSink(journal)
            visits = [sample_hw, other, sample_hw, other]
            for hw, mapping in zip(visits, MAPPINGS):
                tiny_engine.evaluate_layers(hw, [(mapping, "gemm"), (mapping, "pw")])
        assert len(encoded) == 2
        assert encoded[0] is sample_hw and encoded[1] is other
        events = read_events(path).events
        assert len(events) == 8
        for event, hw in zip(events, [hw for hw in visits for _ in range(2)]):
            assert event["hw"] == json.loads(json.dumps(vars(hw)))


class TestCoSearchSink:
    def test_cosearch_journals_one_sample_per_cache_miss(
        self, tiny_network, edge_space, tmp_path
    ):
        path = tmp_path / "serial.jsonl"
        engine = MaestroEngine(tiny_network)
        with EventJournal(path) as journal:
            engine.sample_sink = JournalSampleSink(journal)
            _unico(
                tiny_network, edge_space, engine, workers=4, eval_batch_size=8
            ).optimize()
        lines = Counter()
        for event in read_events(path).of_type("engine_sample"):
            del event["seq"]  # file position
            lines[json.dumps(event, sort_keys=True)] += 1
        assert sum(lines.values()) > 100
        assert sum(lines.values()) == engine.num_queries - engine.num_cache_hits
        assert set(lines.values()) == {1}  # a hit is never journaled again

    def test_multi_workload_facade_forwards_the_sink(self, tiny_network):
        facade, _factory = multi_workload_trial_factory(
            [tiny_network], MaestroEngine
        )
        assert facade.sample_sink is None
        sink = _recording_sink([])
        facade.sample_sink = sink
        assert all(engine.sample_sink is sink for engine in facade.engines.values())
