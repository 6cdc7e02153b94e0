"""Edge-case tests for figure/table helper functions."""

import numpy as np
import pytest

from repro.experiments.fig7 import speedup_to_reach
from repro.experiments.fig8 import select_comparable_pairs
from repro.experiments.tables import table_cell
from repro.utils.records import RunRecord


def _panel(grid, curves):
    record = RunRecord("fig7-test")
    record.put("time_grid_s", grid)
    for method, curve in curves.items():
        child = record.child(method)
        child.put("hv_diff_curve", curve)
        child.put("final_hv_diff", curve[-1])
    return record


class TestSpeedupToReach:
    def test_faster_method(self):
        panel = _panel(
            [1.0, 2.0, 3.0, 4.0],
            {"hasco": [0.9, 0.8, 0.7, 0.5], "unico": [0.5, 0.3, 0.2, 0.1]},
        )
        # unico hits hasco's final (0.5) already at t=1 -> 4x
        assert speedup_to_reach(panel) == pytest.approx(4.0)

    def test_target_time_is_when_hasco_reaches_its_final_value(self):
        panel = _panel(
            [1.0, 2.0, 3.0, 4.0],
            {"hasco": [0.9, 0.5, 0.5, 0.5], "unico": [0.5, 0.3, 0.2, 0.1]},
        )
        # hasco sits at its final level from t=2 on, not only at the grid's
        # end; unico is there at t=1 -> 2x
        assert speedup_to_reach(panel) == pytest.approx(2.0)

    def test_never_reaches_is_infinite(self):
        panel = _panel(
            [1.0, 2.0],
            {"hasco": [0.5, 0.1], "unico": [0.9, 0.8]},
        )
        assert speedup_to_reach(panel) == float("inf")

    def test_reaches_only_at_end(self):
        panel = _panel(
            [1.0, 2.0],
            {"hasco": [0.5, 0.4], "unico": [0.9, 0.4]},
        )
        assert speedup_to_reach(panel) == pytest.approx(1.0)


class TestSelectComparablePairs:
    def _design(self, latency, power, area, r):
        from repro.core.base import HWDesign
        from repro.core.robustness import RobustnessResult
        from repro.ppa import NetworkPPA

        ppa = NetworkPPA(
            latency_s=latency, energy_j=1.0, power_w=power, area_mm2=area,
            feasible=True,
        )
        rob = RobustnessResult(
            r_value=r, delta=r, theta=np.pi / 2,
            optimal_latency_s=latency, optimal_power_w=power,
            suboptimal_latency_s=latency, suboptimal_power_w=power,
        )
        return HWDesign(hw=object(), mapping={}, ppa=ppa, robustness=rob)

    def test_similar_ppa_different_r_selected(self):
        designs = [
            self._design(1.00, 1.00, 1.00, r=0.01),
            self._design(1.05, 1.02, 0.98, r=0.50),
            self._design(9.00, 9.00, 9.00, r=0.30),
        ]
        pairs = select_comparable_pairs(designs, tolerance=0.10)
        assert pairs == [(0, 1)]

    def test_equal_r_not_selected(self):
        designs = [
            self._design(1.0, 1.0, 1.0, r=0.2),
            self._design(1.01, 1.0, 1.0, r=0.2),
        ]
        assert select_comparable_pairs(designs, tolerance=0.10) == []

    def test_ranked_by_r_gap(self):
        designs = [
            self._design(1.00, 1.00, 1.00, r=0.01),
            self._design(1.01, 1.00, 1.00, r=0.90),  # big gap with 0
            self._design(1.02, 1.00, 1.00, r=0.05),  # small gap with 0
        ]
        pairs = select_comparable_pairs(designs, tolerance=0.10)
        assert pairs[0] in [(0, 1), (1, 2)]
        # the widest-gap pair must come first
        assert pairs[0] == (0, 1)

    def test_infinite_r_excluded(self):
        designs = [
            self._design(1.0, 1.0, 1.0, r=float("inf")),
            self._design(1.01, 1.0, 1.0, r=0.1),
        ]
        assert select_comparable_pairs(designs, tolerance=0.10) == []


class TestTableCellInfeasible:
    def test_infeasible_scenario_reports_inf(self, tiny_network, monkeypatch):
        """A scenario no design can satisfy reports infinite PPA cells."""
        import repro.experiments.harness as harness
        from repro.experiments.harness import run_method

        original = harness.make_platform

        def strangled(scenario, network):
            space, engine, caps, tool, workers = original(scenario, network)
            caps = dict(caps)
            caps["power_cap_w"] = 1e-12  # nothing satisfies this
            return space, engine, caps, tool, workers

        monkeypatch.setattr(harness, "make_platform", strangled)
        result = run_method("random", "edge", tiny_network, "smoke", seed=0)
        cell = table_cell(result)
        assert cell["latency_ms"] == float("inf")
        assert cell["pareto_size"] == 0
        assert cell["cost_h"] > 0  # the search still burned time
        assert cell["engine_queries"] == result.total_engine_queries > 0
