"""The engine's ``sample_sink`` protocol and the journal sink on it.

One call per group of an engine call — ``sink(hw, samples)`` — carrying
every item the engine computed, in item order; the journal sink turns
one call into one group commit.
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
from tests.costmodel.served import served

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
        tiny_engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")  # again
        shape = tiny_engine.layer_shapes["gemm"][0]
        assert calls == [(sample_hw, [("gemm", MAPPINGS[0], shape, result)])] * 2

    def test_batch_is_one_call_and_an_all_hit_batch_is_none(
        self, tiny_network, sample_hw
    ):
        """A client's sink gets one call per engine call, every item in it;
        behind a replica, an all-hit batch reaches no engine and no sink."""
        calls, behind = [], []
        requests = [(m, "gemm") for m in MAPPINGS] + [(MAPPINGS[0], "conv")]
        with served(tiny_network) as (server, client):
            client.sample_sink = _recording_sink(calls)
            server.engine.sample_sink = _recording_sink(behind)
            results = client.evaluate_layers(sample_hw, requests)
            assert client.evaluate_layers(sample_hw, requests) == results
        assert len(calls) == 2 and calls[0] == calls[1]
        assert [(name, mapping) for name, mapping, _s, _r in calls[0][1]] == [
            (layer_name, mapping) for mapping, layer_name in requests
        ]
        assert [result for _n, _m, _s, result in calls[0][1]] == results
        assert behind == [calls[0]]

    @pytest.mark.parametrize("stored", [0, 1, 3])
    def test_part_way_failure_hands_over_what_was_stored(
        self, tiny_network, sample_hw, stored
    ):
        """A kernel raising at item k: the k answers before it reach the
        sink, in item order, in one call — a repeat is an item like any
        other — and every item of the call stays counted."""

        class FailsPartWay(MaestroEngine):
            computed = 0

            def _compute_layer(self, hw, mapping, shape):
                if self.computed == stored:
                    raise EvaluationError(f"down at {self.computed}")
                self.computed += 1
                return super()._compute_layer(hw, mapping, shape)

        engine = FailsPartWay(tiny_network)
        calls = []
        engine.sample_sink = _recording_sink(calls)
        # position 2 repeats position 0
        requests = [(MAPPINGS[0], "gemm"), (MAPPINGS[0], "conv")] + [
            (m, "gemm") for m in MAPPINGS
        ]
        with pytest.raises(EvaluationError, match=f"down at {stored}"):
            engine.evaluate_layers(sample_hw, requests)
        assert engine.num_queries == len(requests)
        assert len(calls) == (1 if stored else 0)
        handed = calls[0][1] if calls else []
        assert [(mapping, name) for name, mapping, _s, _r in handed] == (
            requests[:stored]
        )
        reference = MaestroEngine(tiny_network)
        for name, mapping, _shape, result in handed:
            assert reference.evaluate_layer(sample_hw, mapping, name) == result

    def test_failure_in_a_later_group_keeps_the_groups_before_it(
        self, tiny_network, edge_space, sample_hw
    ):
        """Groups are computed in turn: a failure in the second hands the
        sink the first whole and the second up to the failure."""
        other = edge_space.sample(3)

        class FailsOnOther(MaestroEngine):
            def _compute_layer(self, hw, mapping, shape):
                if hw is other and mapping is MAPPINGS[1]:
                    raise EvaluationError("down")
                return super()._compute_layer(hw, mapping, shape)

        engine = FailsOnOther(tiny_network)
        calls = []
        engine.sample_sink = _recording_sink(calls)
        items = [(mapping, "gemm") for mapping in MAPPINGS[:3]]
        with pytest.raises(EvaluationError, match="down"):
            engine.evaluate_groups([(sample_hw, items), (other, items)])
        assert engine.num_queries == 6
        assert [(hw, len(samples)) for hw, samples in calls] == [
            (sample_hw, 3), (other, 1)
        ]


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
        # an engine keeps no cache: every query is computed and journaled
        assert sum(lines.values()) == engine.num_queries

    def test_multi_workload_facade_forwards_the_sink(self, tiny_network):
        facade, _factory = multi_workload_trial_factory(
            [tiny_network], MaestroEngine
        )
        assert facade.sample_sink is None
        sink = _recording_sink([])
        facade.sample_sink = sink
        assert all(engine.sample_sink is sink for engine in facade.engines.values())
