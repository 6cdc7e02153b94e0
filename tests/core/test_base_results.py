"""Tests for the shared co-search result types."""

import numpy as np
import pytest

from repro.core.base import CoSearchResult, HWDesign, TimelineEntry
from repro.core.robustness import RobustnessResult
from repro.optim.pareto import ParetoFront
from repro.ppa import NetworkPPA


def _design(latency=1e-3, power=0.5, area=2.0, r=0.1) -> HWDesign:
    ppa = NetworkPPA(
        latency_s=latency,
        energy_j=latency * power,
        power_w=power,
        area_mm2=area,
        feasible=True,
    )
    robustness = RobustnessResult(
        r_value=r, delta=r, theta=np.pi / 2,
        optimal_latency_s=latency, optimal_power_w=power,
        suboptimal_latency_s=latency, suboptimal_power_w=power,
    )
    return HWDesign(hw="hw", mapping={}, ppa=ppa, robustness=robustness)


class TestHWDesign:
    def test_ppa_vector(self):
        design = _design(latency=2e-3, power=0.25, area=3.0)
        assert design.ppa_vector.tolist() == [2e-3, 0.25, 3.0]


class TestCoSearchResult:
    def _result(self, entries=(), designs=()):
        front = ParetoFront(num_objectives=3)
        for design in designs:
            front.add(design, design.ppa_vector)
        return CoSearchResult(
            method="m",
            network="n",
            pareto=front,
            timeline=list(entries),
            total_time_s=7200.0,
        )

    def test_total_time_h(self):
        assert self._result().total_time_h == pytest.approx(2.0)

    def test_best_design_none_when_empty(self):
        assert self._result().best_design() is None

    def test_best_design_min_euclid(self):
        balanced = _design(latency=1e-3, power=0.5, area=2.0)
        extreme = _design(latency=1e-6, power=50.0, area=20.0)
        result = self._result(designs=[balanced, extreme])
        assert result.best_design() is balanced

    def test_feasible_timeline_points_filters(self):
        entries = [
            TimelineEntry(1.0, np.array([1.0, 1.0, 1.0]), True),
            TimelineEntry(2.0, np.array([np.inf, np.inf, np.inf]), False),
            TimelineEntry(3.0, np.array([2.0, 2.0, 2.0]), True),
        ]
        points = self._result(entries=entries).feasible_timeline_points()
        assert points.shape == (2, 3)

    def test_empty_timeline_points_shape(self):
        points = self._result().feasible_timeline_points()
        assert points.shape == (0, 3)
