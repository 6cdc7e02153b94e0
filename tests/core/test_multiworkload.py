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
from repro.experiments.harness import RunSpec, launch, resume_run
from repro.hw.spatial import edge_design_space
from repro.tracking.journal import read_events
from repro.tracking.store import RunStore
from repro.utils.clock import SimulatedClock
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
    engine, factory = multi_workload_trial_factory(
        two_networks, lambda net, clock: MaestroEngine(net, clock=clock)
    )
    return engine, factory


class TestMultiWorkloadEngine:
    def test_shared_clock(self, composite):
        engine, _factory = composite
        clocks = {id(e.clock) for e in engine.engines.values()}
        assert len(clocks) == 1
        assert next(iter(clocks)) == id(engine.clock)

    def test_query_count_sums(self, composite, sample_hw):
        engine, factory = composite
        trial = factory(sample_hw, seed_rng=0)
        before = engine.num_queries
        trial.run(5)
        assert engine.num_queries == before + 5 * len(engine.engines)

    def test_charge_clock_propagates(self, composite):
        engine, _factory = composite
        engine.charge_clock = False
        assert all(not e.charge_clock for e in engine.engines.values())
        engine.charge_clock = True
        assert engine.charge_clock

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
        engine, factory = multi_workload_trial_factory(
            two_networks, lambda net, clock: MaestroEngine(net, clock=clock)
        )
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

    def test_screening_is_refused(self):
        with pytest.raises(ConfigurationError, match="screening"):
            RunSpec("unico", "edge", "bert+mobilenet", screen="model.json")
