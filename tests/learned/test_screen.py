"""ScreeningPPAEngine: parity when off, honesty and accounting when on."""

import numpy as np
import pytest

from repro.costmodel.engine import MaestroEngine
from repro.core.evaluation import _QueryCountingEngine
from repro.learned.model import LearnedCostModel
from repro.learned.screen import SCREENED_REASON, ScreeningPPAEngine


@pytest.fixture()
def model(labelled_batch):
    x, latency, energy, feasible = labelled_batch
    if feasible.sum() < 8:
        pytest.skip("sampled batch too infeasible for this hw")
    return LearnedCostModel.fit(
        x, latency, energy, feasible, seed=0, hidden=16, ensemble=2, epochs=80
    )


class TestPassThrough:
    def test_disabled_wrapper_is_bit_identical(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch
    ):
        layer_name, _shape = layer_and_shape
        requests = [(m, layer_name) for m in mapping_batch]
        plain = MaestroEngine(tiny_network).evaluate_layers(sample_hw, requests)
        wrapped_engine = ScreeningPPAEngine(MaestroEngine(tiny_network), model=None)
        wrapped = wrapped_engine.evaluate_layers(sample_hw, requests)
        assert wrapped == plain
        assert not wrapped_engine.screening_active
        assert wrapped_engine.screen_stats()["batches_screened"] == 0

    def test_small_batches_pass_through(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch, model
    ):
        layer_name, _shape = layer_and_shape
        engine = ScreeningPPAEngine(
            MaestroEngine(tiny_network), model=model, min_batch=8
        )
        results = engine.evaluate_layers(sample_hw, [(m, layer_name) for m in mapping_batch[:4]])
        assert all(r.infeasible_reason != SCREENED_REASON for r in results)
        assert engine.screen_stats()["batches_screened"] == 0

    def test_scalar_path_never_screened(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch, model
    ):
        layer_name, _shape = layer_and_shape
        engine = ScreeningPPAEngine(MaestroEngine(tiny_network), model=model)
        result = engine.evaluate_layer(sample_hw, mapping_batch[0], layer_name)
        assert result.infeasible_reason != SCREENED_REASON

    def test_attribute_delegation_and_forwarded_setters(
        self, tiny_network, model
    ):
        inner = MaestroEngine(tiny_network)
        engine = ScreeningPPAEngine(inner, model=model)
        assert engine.network is inner.network
        assert engine.clock is inner.clock
        engine.charge_clock = False
        assert inner.charge_clock is False
        sink = object()
        engine.sample_sink = sink
        assert inner.sample_sink is sink


class TestScreening:
    def test_forwarded_results_are_exact_analytical(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch, model
    ):
        layer_name, _shape = layer_and_shape
        requests = [(m, layer_name) for m in mapping_batch]
        reference = MaestroEngine(tiny_network).evaluate_layers(sample_hw, requests)
        engine = ScreeningPPAEngine(
            MaestroEngine(tiny_network), model=model, topk=6
        )
        results = engine.evaluate_layers(sample_hw, requests)
        screened = [
            i for i, r in enumerate(results)
            if r.infeasible_reason == SCREENED_REASON
        ]
        forwarded = [i for i in range(len(results)) if i not in screened]
        assert screened and forwarded
        for index in forwarded:
            assert results[index] == reference[index]
        for index in screened:
            assert not results[index].feasible
            assert results[index].latency_s == float("inf")

    def test_counters_and_stats(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch, model
    ):
        layer_name, _shape = layer_and_shape
        inner = MaestroEngine(tiny_network)
        engine = ScreeningPPAEngine(inner, model=model, topk=6)
        engine.evaluate_layers(sample_hw, [(m, layer_name) for m in mapping_batch])
        stats = engine.screen_stats()
        assert stats["batches_screened"] == 1
        assert stats["candidates_seen"] == len(mapping_batch)
        assert stats["forwarded"] + stats["skipped"] == len(mapping_batch)
        assert stats["evals_saved"] == stats["skipped"] > 0
        assert 0.0 <= stats["precision"] <= 1.0
        # counters also land on the inner engine's metrics registry
        assert inner.metrics.counter_value("screen_batches_screened_total") == 1
        # only forwarded candidates hit the analytical engine
        assert inner.num_queries == stats["forwarded"]
        # engine stats surface the screening block
        assert engine.stats()["screening"]["forwarded"] == stats["forwarded"]

    def test_uncertainty_escalation_forwards_extra(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch, model
    ):
        layer_name, _shape = layer_and_shape
        engine = ScreeningPPAEngine(
            MaestroEngine(tiny_network),
            model=model,
            topk=4,
            escalate_fraction=0.25,
        )
        engine.evaluate_layers(sample_hw, [(m, layer_name) for m in mapping_batch])
        stats = engine.screen_stats()
        assert stats["escalated"] > 0
        assert stats["forwarded"] > 4

    def test_foreign_hw_falls_back_to_full_forward(
        self, tiny_network, layer_and_shape, mapping_batch, model
    ):
        class ForeignHW:
            def __repr__(self):
                return "foreign"

        layer_name, _shape = layer_and_shape
        engine = ScreeningPPAEngine(MaestroEngine(tiny_network), model=model)
        with pytest.raises(Exception):
            # the inner engine itself cannot evaluate foreign hw either;
            # the point is the screen does not swallow the batch silently
            engine.evaluate_layers(ForeignHW(), [(m, layer_name) for m in mapping_batch])
        assert engine.screen_stats()["fallback_batches"] == 1

    def test_audit_batches_measure_recall(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch, model
    ):
        layer_name, _shape = layer_and_shape
        engine = ScreeningPPAEngine(
            MaestroEngine(tiny_network), model=model, topk=6, audit_every=2
        )
        engine.evaluate_layers(sample_hw, [(m, layer_name) for m in mapping_batch[:20]])
        engine.evaluate_layers(sample_hw, [(m, layer_name) for m in mapping_batch[20:]])
        stats = engine.screen_stats()
        assert stats["audit_batches"] == 1
        assert stats["audit_recall"] in (0.0, 1.0)

    def test_screen_cost_charged_to_clock(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch, model
    ):
        layer_name, _shape = layer_and_shape
        inner = MaestroEngine(tiny_network)
        engine = ScreeningPPAEngine(
            inner, model=model, topk=4, screen_cost_s=0.5
        )
        before = inner.clock.now_s
        engine.evaluate_layers(sample_hw, [(m, layer_name) for m in mapping_batch])
        skipped = engine.screen_stats()["skipped"]
        charged = inner.clock.now_s - before
        # forwarded evals charge eval_cost_s each; screened ones 0.5s each
        assert charged == pytest.approx(
            engine.screen_stats()["forwarded"] * inner.eval_cost_s
            + 0.5 * skipped
        )


class TestQueryAccounting:
    def test_counting_proxy_ignores_screened_results(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch, model
    ):
        layer_name, _shape = layer_and_shape
        engine = ScreeningPPAEngine(
            MaestroEngine(tiny_network), model=model, topk=6
        )
        view = _QueryCountingEngine(engine)
        results = view.evaluate_layers(sample_hw, [(m, layer_name) for m in mapping_batch])
        analytical = sum(
            1 for r in results if r.infeasible_reason != SCREENED_REASON
        )
        assert view.local_queries == analytical < len(mapping_batch)

    def test_counting_proxy_unchanged_without_wrapper(
        self, tiny_network, sample_hw, layer_and_shape, mapping_batch
    ):
        layer_name, _shape = layer_and_shape
        view = _QueryCountingEngine(MaestroEngine(tiny_network))
        view.evaluate_layers(sample_hw, [(m, layer_name) for m in mapping_batch])
        assert view.local_queries == len(mapping_batch)
