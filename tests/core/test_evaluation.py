"""Tests for trial wrapping and objective-vector assembly."""

import numpy as np
import pytest

from repro.core.evaluation import (
    SEARCH_TOOLS,
    SWSearchTrial,
    assemble_objectives,
    make_search_tool,
)
from repro.costmodel.engine import MaestroEngine
from repro.errors import ConfigurationError


@pytest.fixture()
def trial(tiny_network, sample_hw):
    engine = MaestroEngine(tiny_network)
    return SWSearchTrial(sample_hw, tiny_network, engine, seed=0)


class TestMakeSearchTool:
    def test_all_registered_tools_constructible(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        for name in ("flextensor", "gamma", "random"):
            tool = make_search_tool(name, tiny_network, sample_hw, engine, seed=0)
            assert tool.name == name

    def test_unknown_tool(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        with pytest.raises(ConfigurationError):
            make_search_tool("ansor", tiny_network, sample_hw, engine)

    def test_registry_contains_fusion(self):
        assert "fusion" in SEARCH_TOOLS


class TestSWSearchTrial:
    def test_tracks_init_queries(self, trial):
        assert trial.queries_spent >= 3  # at least one eval per layer

    def test_run_accumulates_queries(self, trial):
        before = trial.queries_spent
        trial.run(20)
        assert trial.queries_spent == before + 20
        assert trial.spent_budget == 20

    def test_best_curve_delegates(self, trial):
        trial.run(10)
        assert trial.best_curve().shape == (10,)

    def test_robustness_available(self, trial):
        trial.run(40)
        assert trial.robustness().finite


class TestAssembleObjectives:
    def test_four_objectives_with_robustness(self, trial):
        trial.run(30)
        evaluation = assemble_objectives(trial, include_robustness=True)
        assert evaluation.objectives.shape == (4,)
        assert evaluation.feasible
        assert evaluation.objectives[0] == pytest.approx(trial.best_ppa.latency_s)
        assert evaluation.objectives[3] == evaluation.robustness.r_value

    def test_three_objectives_without_robustness(self, trial):
        trial.run(10)
        evaluation = assemble_objectives(trial, include_robustness=False)
        assert evaluation.objectives.shape == (3,)

    def test_power_cap_makes_infeasible(self, trial):
        trial.run(10)
        capped = assemble_objectives(trial, power_cap_w=1e-9)
        assert not capped.feasible
        assert np.all(np.isinf(capped.objectives))

    def test_area_cap_makes_infeasible(self, trial):
        trial.run(10)
        capped = assemble_objectives(trial, area_cap_mm2=1e-6)
        assert not capped.feasible

    def test_power_equal_to_the_cap_is_feasible(self, trial):
        trial.run(10)
        evaluation = assemble_objectives(trial, power_cap_w=trial.best_ppa.power_w)
        assert evaluation.feasible
        assert np.all(np.isfinite(evaluation.objectives))

    def test_area_equal_to_the_cap_is_feasible(self, trial):
        trial.run(10)
        evaluation = assemble_objectives(trial, area_cap_mm2=trial.best_ppa.area_mm2)
        assert evaluation.feasible
        assert np.all(np.isfinite(evaluation.objectives))

    def test_generous_caps_keep_feasible(self, trial):
        trial.run(10)
        evaluation = assemble_objectives(
            trial, power_cap_w=1e6, area_cap_mm2=1e6
        )
        assert evaluation.feasible

    def test_ppa_vector_always_populated(self, trial):
        trial.run(10)
        evaluation = assemble_objectives(trial, power_cap_w=1e-9)
        # the raw PPA survives even when the capped Y is infinite
        assert np.all(np.isfinite(evaluation.ppa_vector))
