"""Tests for the experiment harness plumbing."""

import numpy as np
import pytest

from repro.core.base import CoSearchResult, TimelineEntry
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    combined_reference,
    hv_difference_curve,
    ideal_front,
    make_platform,
    resolve_workload,
    run_method,
    sw_search_on,
    time_grid,
)
from repro.experiments.presets import get_preset
from repro.optim.hypervolume import hypervolume
from repro.optim.pareto import ParetoFront
from repro.workloads.network import Network
from repro.workloads.registry import get_network


class TestPresets:
    def test_known_names(self):
        for name in ("smoke", "bench", "paper"):
            preset = get_preset(name)
            assert preset.name == name

    def test_paper_matches_section4(self):
        preset = get_preset("paper")
        assert preset.unico_batch == 30
        assert preset.unico_budget == 300
        assert preset.ascend_batch == 8
        assert preset.ascend_iterations == 30
        assert preset.ascend_budget == 200

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_preset("gigantic")


class TestResolveWorkload:
    def test_string(self):
        assert resolve_workload("bert").name == "bert"

    def test_network_passthrough(self, tiny_network):
        assert resolve_workload(tiny_network) is tiny_network

    def test_list_merges(self):
        merged = resolve_workload(["bert", "vit"])
        assert merged.family == "multi"
        assert merged.name == "bert+vit"

    def test_singleton_list(self):
        assert resolve_workload(["bert"]).name == "bert"


class TestMakePlatform:
    def test_edge(self):
        space, engine, caps, tool, workers = make_platform("edge", get_network("bert"))
        assert space.name == "spatial-edge"
        assert caps["power_cap_w"] == 2.0
        assert tool == "flextensor"
        assert workers == 8  # multiprocessing SH jobs on the server's cores

    def test_ascend(self):
        space, engine, caps, tool, workers = make_platform(
            "ascend", get_network("fsrcnn_120x320")
        )
        assert space.name == "ascend-like"
        assert caps["area_cap_mm2"] == 200.0
        assert tool == "fusion"
        assert workers == 4

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_platform("fpga", get_network("bert"))


class TestRunMethod:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            run_method("cmaes", "edge", "bert", "smoke")

    @pytest.mark.parametrize("method", ["unico", "hasco", "nsgaii", "mobohb", "random"])
    def test_each_method_runs(self, method, tiny_network):
        result = run_method(method, "edge", tiny_network, "smoke", seed=1)
        assert result.method == method
        assert result.total_hw_evaluated > 0

    @pytest.mark.parametrize("method", ["unico_no_r", "msh_champion", "sh_champion"])
    def test_unico_variants_run(self, method, tiny_network):
        result = run_method(method, "edge", tiny_network, "smoke", seed=1)
        assert result.method == method

    def test_seed_changes_outcome_reproducibly(self, tiny_network):
        a = run_method("random", "edge", tiny_network, "smoke", seed=1)
        b = run_method("random", "edge", tiny_network, "smoke", seed=1)
        assert a.total_time_s == b.total_time_s


class TestSwSearchOn:
    def test_transfer_search(self, tiny_network):
        from repro.hw.spatial import edge_design_space

        hw = edge_design_space().sample(seed=4)
        trial = sw_search_on(hw, tiny_network, "edge", budget=20, seed=0)
        assert trial.spent_budget == 20


def _fake_result(times_and_points):
    pareto = ParetoFront(num_objectives=3)
    timeline = []
    for t, point in times_and_points:
        timeline.append(
            TimelineEntry(time_s=t, ppa_vector=np.array(point), feasible=True)
        )
        pareto.add(tuple(point), point)
    return CoSearchResult(
        method="fake",
        network="net",
        pareto=pareto,
        timeline=timeline,
        total_time_s=max(t for t, _ in times_and_points),
        total_hw_evaluated=len(timeline),
    )


class TestHVCurves:
    def test_curve_monotone_nonincreasing(self):
        result = _fake_result(
            [(1.0, [3, 3, 3]), (2.0, [2, 2, 2]), (3.0, [1, 1, 1])]
        )
        reference = combined_reference([result])
        ideal = ideal_front([result])
        ideal_hv = hypervolume(ideal, reference)
        curve = hv_difference_curve(result, reference, ideal_hv, [1.0, 2.0, 3.0])
        values = [v for _t, v in curve]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(0.0)

    def test_curve_before_first_eval_is_full_gap(self):
        result = _fake_result([(10.0, [1, 1, 1])])
        reference = combined_reference([result])
        ideal_hv = hypervolume(ideal_front([result]), reference)
        curve = hv_difference_curve(result, reference, ideal_hv, [5.0, 10.0])
        assert curve[0][1] == pytest.approx(ideal_hv)
        assert curve[1][1] == pytest.approx(0.0)

    def test_time_grid_spans_runs(self):
        a = _fake_result([(1.0, [1, 1, 1])])
        b = _fake_result([(9.0, [2, 2, 2])])
        grid = time_grid([a, b], num_points=10)
        assert grid[-1] == pytest.approx(9.0)
        assert len(grid) == 10

    def test_combined_reference_beyond_all(self):
        a = _fake_result([(1.0, [5, 1, 1])])
        b = _fake_result([(1.0, [1, 7, 2])])
        reference = combined_reference([a, b])
        assert np.all(reference >= [5, 7, 2])
