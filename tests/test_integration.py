"""Cross-module integration tests: the full co-optimization stack.

Where unit tests validate each piece, these validate the *claims* the
system rests on, end to end, at small scale:

* UNICO produces better-or-equal hypervolume than random search at a
  comparable evaluation budget,
* the high-fidelity surrogate actually learns (prediction error shrinks
  with training data),
* the whole pipeline is deterministic under a fixed seed,
* the Ascend path (CA model + fusion tool + UNICO + area cap) holds up.
"""

import numpy as np
import pytest

from repro.camodel.engine import AscendCAEngine
from repro.core.baselines.random_codesign import RandomCodesign, RandomCodesignConfig
from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.experiments.harness import combined_reference, final_hypervolume
from repro.hw.ascend import ascend_design_space
from repro.hw.spatial import edge_design_space
from repro.workloads.registry import get_network


class TestUnicoVsRandom:
    def test_unico_hypervolume_not_worse(self, tiny_network, edge_space):
        """Averaged over seeds, UNICO's front should at least match random's
        under a similar total evaluation budget."""
        unico_hvs = []
        random_hvs = []
        for seed in (0, 1, 2):
            engine = MaestroEngine(tiny_network)
            unico = Unico(
                edge_space,
                tiny_network,
                engine,
                UnicoConfig(batch_size=6, max_iterations=3, max_budget=40),
                power_cap_w=100.0,
                seed=seed,
            )
            unico_result = unico.optimize()
            engine2 = MaestroEngine(tiny_network)
            rand = RandomCodesign(
                edge_space,
                tiny_network,
                engine2,
                RandomCodesignConfig(max_candidates=12, full_budget=40),
                power_cap_w=100.0,
                seed=seed,
            )
            random_result = rand.optimize()
            reference = combined_reference([unico_result, random_result])
            unico_hvs.append(final_hypervolume(unico_result, reference))
            random_hvs.append(final_hypervolume(random_result, reference))
        assert np.mean(unico_hvs) >= 0.9 * np.mean(random_hvs)


class TestSurrogateLearns:
    def test_prediction_error_shrinks(self, tiny_network, edge_space):
        """GP error on PPA objectives drops as observations accumulate."""
        from repro.core.evaluation import SWSearchTrial, assemble_objectives
        from repro.optim.gp import GaussianProcess
        from repro.optim.pareto import ObjectiveNormalizer

        engine = MaestroEngine(tiny_network)
        engine.charge_clock = False
        configs = edge_space.sample_batch(40, seed=0)
        normalizer = ObjectiveNormalizer(3)
        observations = []
        for hw in configs:
            trial = SWSearchTrial(hw, tiny_network, engine, seed=1)
            trial.run(12)
            evaluation = assemble_objectives(trial, include_robustness=False)
            observations.append(evaluation.objectives)
            normalizer.observe(evaluation.objectives)
        y = np.vstack([normalizer.transform(obs) for obs in observations])
        query, truth = configs[30:], y[30:]
        x_query = edge_space.encode_batch(query)

        def rmse(train_n):
            x_train = edge_space.encode_batch(configs[:train_n])
            mean = np.column_stack(
                [
                    GaussianProcess()
                    .fit(x_train, y[:train_n, j], seed=j)
                    .predict(x_query)[0]
                    for j in range(3)
                ]
            )
            return float(np.sqrt(np.mean((mean - truth) ** 2)))

        assert rmse(30) < rmse(5) * 1.05  # learning, modulo noise


class TestDeterminism:
    def test_unico_fully_deterministic(self, tiny_network, edge_space):
        def run_once():
            engine = MaestroEngine(tiny_network)
            unico = Unico(
                edge_space,
                tiny_network,
                engine,
                UnicoConfig(batch_size=5, max_iterations=2, max_budget=20),
                power_cap_w=100.0,
                seed=99,
            )
            result = unico.optimize()
            return (
                result.total_time_s,
                result.total_engine_queries,
                tuple(sorted(map(tuple, result.pareto.points.tolist()))),
            )

        assert run_once() == run_once()


class TestAscendPipeline:
    def test_unico_on_ascend_with_area_cap(self):
        network = get_network("fsrcnn_120x320")
        engine = AscendCAEngine(network, noise_fraction=0.08)
        unico = Unico(
            ascend_design_space(),
            network,
            engine,
            UnicoConfig(
                batch_size=4,
                max_iterations=2,
                max_budget=16,
                workers=4,
            ),
            tool="fusion",
            area_cap_mm2=200.0,
            seed=5,
        )
        result = unico.optimize()
        best = result.best_design()
        assert best is not None
        assert best.ppa.area_mm2 <= 200.0
        assert np.isfinite(best.ppa.latency_s)
        # CA-model evaluations dominate the simulated cost: even this tiny
        # run (4 workers) burns a large fraction of an hour of modeled time
        assert result.total_time_h > 0.2


class TestClockAccounting:
    def test_simulated_cost_scales_with_queries(self, tiny_network, edge_space):
        engine = MaestroEngine(tiny_network)
        unico = Unico(
            edge_space,
            tiny_network,
            engine,
            UnicoConfig(batch_size=4, max_iterations=1, max_budget=16, workers=1),
            power_cap_w=100.0,
            seed=0,
        )
        result = unico.optimize()
        expected = engine.num_queries * engine.eval_cost_s
        # serial workers: SW-search time == queries x eval cost (+ MOBO overhead)
        assert result.total_time_s == pytest.approx(
            expected + unico.config.mobo_overhead_s, rel=0.01
        )
