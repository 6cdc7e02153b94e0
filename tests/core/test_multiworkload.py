"""Tests for multi-workload co-optimization (Fig. 6a)."""

import numpy as np
import pytest

from repro.core.unico import Unico, UnicoConfig
from repro.core.multiworkload import (
    MultiWorkloadEngine,
    MultiWorkloadTrial,
    multi_workload_trial_factory,
)
from repro.costmodel.engine import MaestroEngine
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    RunSpec,
    build_optimizer,
    launch,
    resume_run,
)
from repro.hw.spatial import edge_design_space
from repro.tracking.journal import read_events
from repro.tracking.store import RunStore
from repro.workloads.layers import Conv2D, Gemm
from repro.workloads.network import Network
from tests.tracking.journal_lines import RESUME_LINES, cut_before_last_state, journal_lines


@pytest.fixture(scope="module")
def two_networks():
    net_a = Network(
        name="neta",
        layers=(Gemm(name="g1", m=32, n=64, k=48),),
        family="test",
    )
    net_b = Network(
        name="netb",
        layers=(
            Conv2D(
                name="c1", in_channels=8, out_channels=16, in_h=16, in_w=16, kernel=3
            ),
            Gemm(name="g2", m=16, n=32, k=24),
        ),
        family="test",
    )
    return [net_a, net_b]


@pytest.fixture()
def composite(two_networks):
    engine, factory = multi_workload_trial_factory(two_networks, MaestroEngine)
    return engine, factory


class TestMultiWorkloadEngine:
    def test_query_count_sums(self, composite, sample_hw):
        # each network's search pays one query per answer it stores (5 steps
        # per network paid 5 queries each when every step was one)
        engine, factory = composite
        trial = factory(sample_hw, seed_rng=0)

        def stored():
            return sum(len(search._bought) for search in trial.searches.values())

        before, stored_before = engine.num_queries, stored()
        trial.run(5)
        assert engine.num_queries - before == stored() - stored_before == 7
        assert trial.queries_spent == stored() == engine.num_queries

    def test_merged_network_metadata(self, composite):
        engine, _factory = composite
        assert engine.network.family == "multi"
        assert engine.network.num_unique_layers == 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiWorkloadEngine({})
        with pytest.raises(ConfigurationError):
            multi_workload_trial_factory([], lambda *a: None)


class TestMultiWorkloadTrial:
    def test_run_advances_all_jobs(self, composite, sample_hw):
        _engine, factory = composite
        trial = factory(sample_hw, seed_rng=1)
        trial.run(10)
        assert all(s.spent_budget == 10 for s in trial.searches.values())
        assert trial.spent_budget == 10

    def test_best_curve_is_sum_and_monotone(self, composite, sample_hw):
        _engine, factory = composite
        trial = factory(sample_hw, seed_rng=1)
        trial.run(30)
        curve = trial.best_curve()
        assert curve.shape == (30,)
        assert np.all(np.diff(curve) <= 1e-18)
        manual = sum(s.best_curve()[:30] for s in trial.searches.values())
        assert np.allclose(curve, manual)

    def test_best_ppa_aggregates(self, composite, sample_hw):
        _engine, factory = composite
        trial = factory(sample_hw, seed_rng=1)
        trial.run(20)
        ppa = trial.best_ppa
        parts = [s.best_ppa for s in trial.searches.values()]
        assert ppa.feasible
        assert ppa.latency_s == pytest.approx(sum(p.latency_s for p in parts))
        assert ppa.energy_j == pytest.approx(sum(p.energy_j for p in parts))
        assert list(ppa.layer_results.values()) == parts

    def test_robustness_is_worst_case(self, composite, sample_hw):
        _engine, factory = composite
        trial = factory(sample_hw, seed_rng=1)
        trial.run(40)
        aggregate = trial.robustness()
        per_workload = [
            s for s in trial.searches.values()
        ]
        from repro.core.robustness import robustness_metric

        individual = [robustness_metric(s.history) for s in per_workload]
        assert aggregate.r_value == pytest.approx(
            max(r.r_value for r in individual)
        )

    def test_search_view_namespaces_layers(self, composite, sample_hw):
        _engine, factory = composite
        trial = factory(sample_hw, seed_rng=1)
        trial.run(5)
        mapping_keys = set(trial.search.best_mapping)
        assert mapping_keys == {"neta.g1", "netb.c1", "netb.g2"}


class TestUnicoWithMultiWorkload:
    def test_end_to_end(self, two_networks):
        engine, factory = multi_workload_trial_factory(two_networks, MaestroEngine)
        space = edge_design_space()
        unico = Unico(
            space,
            engine.network,
            engine,
            UnicoConfig(batch_size=4, max_iterations=2, max_budget=16, workers=4),
            trial_factory=factory,
            power_cap_w=100.0,
            seed=2,
        )
        result = unico.optimize()
        assert result.total_hw_evaluated == 8
        assert result.best_design() is not None
        assert result.total_time_s > 0


#: ``repro run unico fsrcnn_120x320+mobilenetv3_small --track --trace
#: --record-samples``, and the same spec a hub submission builds
JOINED = RunSpec(
    "unico", "edge", "fsrcnn_120x320+mobilenetv3_small", "smoke",
    seed=3, record_samples=True, trace=True,
)


class TestJoinedWorkloadName:
    def test_runs_one_job_per_network_and_resumes_to_the_same_lines(self, tmp_path):
        store = RunStore(tmp_path)
        run = store.get(launch(JOINED, run=store).extras["run_id"])
        manifest = run.read_manifest()
        assert manifest["engine"] == "MultiWorkloadEngine"
        assert RunSpec.from_manifest(manifest).workload == JOINED.workload
        events = read_events(run.journal_path).events
        (snapshot,) = [event for event in events if event["type"] == "engine_snapshot"]
        per_workload = snapshot["engine"]["workloads"]
        assert sorted(per_workload) == ["fsrcnn_120x320", "mobilenetv3_small"]
        assert all(stats["num_queries"] > 0 for stats in per_workload.values())
        kinds = {event["type"] for event in events}
        assert {"engine_sample", "span"} <= kinds  # the sink and tracer reach each engine
        assert any(
            event["type"] == "span" and event["name"] == "engine_eval_batch"
            for event in events
        )

        straight = run.journal_path.read_bytes()
        cut = store.create_run(dict(manifest, status="running"), run_id="cut")
        cut.journal_path.write_bytes(straight)
        cut_before_last_state(cut.journal_path)
        resume_run(cut)
        assert journal_lines(cut.journal_path, RESUME_LINES + ("span",)) == journal_lines(
            straight, RESUME_LINES + ("span",)
        )

    def test_eval_batch_size_reaches_every_job(self):
        """Every network's job searches at the run's width, and the width
        moves nothing: per-trial histories and the front agree."""

        def optimize(width):
            optimizer = build_optimizer(
                "unico", "edge", "mobilenetv3_small+fsrcnn_120x320", "smoke",
                eval_batch_size=width,
            )
            trials = []
            factory = optimizer._trial_factory

            def recording(hw, seed_rng):
                trials.append(factory(hw, seed_rng))
                return trials[-1]

            optimizer._trial_factory = recording
            result = optimizer.optimize()
            assert {
                search.batch_size
                for trial in trials
                for search in trial.searches.values()
            } == {width}
            histories = [
                [search.history for search in trial.searches.values()]
                for trial in trials
            ]
            return result, histories

        narrow, narrow_histories = optimize(1)
        wide, wide_histories = optimize(8)
        assert wide_histories == narrow_histories
        assert np.array_equal(wide.pareto.points, narrow.pareto.points)

    def test_screening_is_refused(self):
        with pytest.raises(ConfigurationError, match="screening"):
            RunSpec("unico", "edge", "bert+mobilenet", screen="model.json")
