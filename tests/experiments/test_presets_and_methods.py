"""Consistency checks across presets and the method registry."""

import pytest

from repro.experiments.harness import _UNICO_VARIANTS
from repro.experiments.presets import get_preset
from repro.methods import METHODS


class TestPresetScaling:
    def test_budgets_grow_monotonically(self):
        smoke = get_preset("smoke")
        bench = get_preset("bench")
        paper = get_preset("paper")
        for field in (
            "unico_batch",
            "unico_iterations",
            "unico_budget",
            "hasco_candidates",
            "hasco_budget",
            "nsga_population",
            "nsga_budget",
            "mobohb_budget",
            "ascend_budget",
            "validation_budget",
        ):
            assert (
                getattr(smoke, field)
                <= getattr(bench, field)
                <= getattr(paper, field)
            ), field

    def test_budget_parity_between_methods(self):
        """HASCO's full budget equals UNICO's b_max at every preset — the
        comparison is budget-matched, as in the paper."""
        for name in ("smoke", "bench", "paper"):
            preset = get_preset(name)
            assert preset.hasco_budget == preset.unico_budget
            assert preset.nsga_budget == preset.unico_budget

    def test_mobohb_budget_is_power_of_eta(self):
        """Hyperband budgets are cleanest when max_budget = eta^k."""
        for name in ("smoke", "bench", "paper"):
            preset = get_preset(name)
            value = preset.mobohb_budget
            while value % 3 == 0:
                value //= 3
            assert value == 1


class TestMethodRegistry:
    def test_variants_subset_of_methods(self):
        assert set(_UNICO_VARIANTS) <= set(METHODS)

    def test_fig10_variants_present(self):
        assert {"sh_champion", "msh_champion", "unico"} <= set(_UNICO_VARIANTS)

    def test_variant_flags_are_distinct(self):
        flags = [
            (v["use_msh"], v["surrogate_update"], v["include_robustness"])
            for v in _UNICO_VARIANTS.values()
        ]
        assert len(set(flags)) == len(flags)

    def test_full_unico_is_msh_highfidelity_robust(self):
        variant = _UNICO_VARIANTS["unico"]
        assert variant["use_msh"]
        assert variant["surrogate_update"] == "high_fidelity"
        assert variant["include_robustness"]
