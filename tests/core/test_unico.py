"""Tests for the UNICO co-optimizer (Algorithm 1)."""

import pytest

from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.errors import ConfigurationError


def _make_unico(network, space, **config_overrides):
    defaults = dict(batch_size=5, max_iterations=2, max_budget=24)
    defaults.update(config_overrides)
    engine = MaestroEngine(network)
    return Unico(
        space, network, engine, UnicoConfig(**defaults), power_cap_w=100.0, seed=11
    )


class TestConfigValidation:
    def test_defaults_follow_paper(self):
        config = UnicoConfig()
        assert config.batch_size == 30
        assert config.max_budget == 300
        assert config.keep_fraction == 0.5
        assert config.auc_fraction == 0.15
        assert config.rho == 0.2
        assert config.uul_percentile == 95.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 1},
            {"max_iterations": 0},
            {"max_budget": 0},
            {"surrogate_update": "weighted"},
            {"workers": 0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            UnicoConfig(**kwargs)


class TestOptimize:
    def test_end_to_end(self, tiny_network, edge_space):
        unico = _make_unico(tiny_network, edge_space)
        result = unico.optimize()
        assert result.method == "unico"
        assert result.total_hw_evaluated == 10  # 2 iterations x batch 5
        assert len(result.pareto) >= 1
        assert result.best_design() is not None
        assert result.total_time_s > 0

    def test_objectives_have_four_dims_with_robustness(self, tiny_network, edge_space):
        unico = _make_unico(tiny_network, edge_space, include_robustness=True)
        unico.optimize()
        assert unico.num_objectives == 4
        for evaluation in unico.evaluations:
            assert evaluation.objectives.shape == (4,)

    def test_no_robustness_three_dims(self, tiny_network, edge_space):
        unico = _make_unico(tiny_network, edge_space, include_robustness=False)
        unico.optimize()
        assert unico.num_objectives == 3

    def test_high_fidelity_training_set_subset(self, tiny_network, edge_space):
        unico = _make_unico(tiny_network, edge_space)
        result = unico.optimize()
        assert 1 <= len(unico.train_configs) <= result.total_hw_evaluated
        assert result.extras["train_set_size"] == len(unico.train_configs)

    def test_champion_update_admits_one_per_iteration(self, tiny_network, edge_space):
        unico = _make_unico(
            tiny_network, edge_space, surrogate_update="champion"
        )
        unico.optimize()
        assert len(unico.train_configs) <= 2  # one champion per iteration

    def test_iteration_records(self, tiny_network, edge_space):
        unico = _make_unico(tiny_network, edge_space)
        result = unico.optimize()
        records = result.extras["iteration_records"]
        assert len(records) == 2
        assert records[0].num_feasible >= 0
        assert records[1].time_s > records[0].time_s

    def test_time_budget_stops_early(self, tiny_network, edge_space):
        unico = _make_unico(
            tiny_network, edge_space, max_iterations=50, time_budget_s=1.0
        )
        result = unico.optimize()
        assert result.extras["iterations"] <= 2

    def test_deterministic(self, tiny_network, edge_space):
        def run_once():
            result = _make_unico(tiny_network, edge_space).optimize()
            return result.best_design().ppa.latency_s

        assert run_once() == run_once()

    def test_workers_reduce_simulated_time(self, tiny_network, edge_space):
        serial = _make_unico(tiny_network, edge_space, workers=1).optimize()
        parallel = _make_unico(tiny_network, edge_space, workers=8).optimize()
        assert parallel.total_time_s < serial.total_time_s
        # but the same evaluations happened
        assert parallel.total_hw_evaluated == serial.total_hw_evaluated

    def test_pareto_points_are_ppa_3d(self, tiny_network, edge_space):
        unico = _make_unico(tiny_network, edge_space)
        result = unico.optimize()
        assert result.pareto.points.shape[1] == 3

    def test_timeline_timestamps_monotone(self, tiny_network, edge_space):
        result = _make_unico(tiny_network, edge_space).optimize()
        times = [entry.time_s for entry in result.timeline]
        assert times == sorted(times)

    def test_msh_vs_sh_both_run(self, tiny_network, edge_space):
        for use_msh in (True, False):
            unico = _make_unico(tiny_network, edge_space, use_msh=use_msh)
            result = unico.optimize()
            assert result.total_hw_evaluated == 10

    def test_survivors_get_more_budget(self, tiny_network, edge_space):
        unico = _make_unico(tiny_network, edge_space, max_iterations=1)
        unico.optimize()
        budgets = [e.budget_spent for e in unico.evaluations]
        assert max(budgets) == 24  # b_max
        assert min(budgets) < max(budgets)  # losers stopped early

    def test_infeasible_hardware_handled(self, tiny_network, edge_space):
        """A power cap nothing satisfies must not crash the loop."""
        engine = MaestroEngine(tiny_network)
        unico = Unico(
            edge_space,
            tiny_network,
            engine,
            UnicoConfig(batch_size=4, max_iterations=2, max_budget=12),
            power_cap_w=1e-12,
            seed=0,
        )
        result = unico.optimize()
        assert len(result.pareto) == 0
        assert result.best_design() is None
