"""Tests for successive halving and the modified (MSH) promotion rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SearchBudgetError
from repro.optim.sh import (
    plan_rounds,
    relative_auc_scores,
    select_survivors_soa,
    terminal_values,
)


def auc_score(curve):
    """One curve's :func:`relative_auc_scores` entry."""
    return relative_auc_scores([np.asarray(curve, dtype=float)])[0]


def select(ids, tv, auc, keep, auc_promotions):
    """:func:`select_survivors_soa` over ``{id: score}`` tables."""
    ids = list(ids)
    return select_survivors_soa(
        ids,
        np.array([tv[i] for i in ids], dtype=float),
        np.array([auc[i] for i in ids], dtype=float),
        keep,
        auc_promotions,
    )


class TestTerminalValue:
    def test_last_element(self):
        assert terminal_values([np.array([5.0, 3.0, 2.0])])[0] == 2.0

    def test_empty_is_inf(self):
        assert terminal_values([np.array([])])[0] == float("inf")


class TestAucScore:
    def test_flat_curve_zero(self):
        assert auc_score(np.array([2.0, 2.0, 2.0])) == 0.0

    def test_steep_converger_has_higher_auc(self):
        """Fig. 4b: the area between the curve and its end-value line."""
        lazy = np.array([10.0, 9.9, 9.8, 9.7])  # plateaued early
        steep = np.array([10.0, 9.0, 6.0, 3.0])  # still dropping
        assert auc_score(steep) > auc_score(lazy)

    def test_known_value(self):
        # heights above end value 1: [2, 1, 0]; trapezoid: 1.5 + 0.5 = 2.0
        assert auc_score(np.array([3.0, 2.0, 1.0])) == pytest.approx(2.0)

    def test_non_finite_ignored(self):
        assert auc_score(np.array([np.inf, np.inf])) == 0.0
        assert auc_score(np.array([np.inf, 3.0, 1.0])) == pytest.approx(1.0)

    def test_single_point_zero(self):
        assert auc_score(np.array([1.0])) == 0.0

    def test_relative_score_scale_free(self):
        curve = np.array([4.0, 2.0, 1.0])
        scaled = 1000 * curve
        assert auc_score(curve) == pytest.approx(auc_score(scaled))

    @given(st.lists(st.floats(0.1, 100), min_size=2, max_size=30))
    @settings(max_examples=50)
    def test_auc_non_negative_for_monotone_curves(self, raw):
        curve = np.minimum.accumulate(np.array(raw))
        assert auc_score(curve) >= -1e-12


class TestPlanRounds:
    def test_final_budget_is_max(self):
        plans = plan_rounds(30, 300)
        assert plans[-1].cumulative_budget == 300
        assert plans[0].num_candidates == 30

    def test_budgets_strictly_increasing(self):
        plans = plan_rounds(30, 300)
        budgets = [p.cumulative_budget for p in plans]
        assert all(b2 > b1 for b1, b2 in zip(budgets, budgets[1:]))

    def test_candidates_halve(self):
        plans = plan_rounds(16, 100, keep_fraction=0.5)
        counts = [p.num_candidates for p in plans]
        assert counts == [16, 8, 4, 2]

    def test_single_candidate_single_round(self):
        plans = plan_rounds(1, 50)
        assert len(plans) == 1
        assert plans[0].cumulative_budget == 50

    def test_tiny_budget_stays_positive(self):
        plans = plan_rounds(8, 2)
        assert all(p.cumulative_budget >= 1 for p in plans)

    def test_invalid_args(self):
        with pytest.raises(SearchBudgetError):
            plan_rounds(0, 10)
        with pytest.raises(SearchBudgetError):
            plan_rounds(4, 0)
        with pytest.raises(SearchBudgetError):
            plan_rounds(4, 10, eta=1.0)
        with pytest.raises(SearchBudgetError):
            plan_rounds(4, 10, keep_fraction=1.5)


class TestSelectSurvivors:
    TV = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 5.0, 5: 6.0}

    def test_pure_tv_is_default_sh(self):
        auc = {i: 0.0 for i in range(6)}
        survivors, _promoted = select(range(6), self.TV, auc, keep=3, auc_promotions=0)
        assert survivors == [0, 1, 2]

    def test_auc_promotes_steep_converger(self):
        """MSH's second chance: a bad-TV candidate with the highest AUC."""
        auc = {i: 0.0 for i in range(6)}
        auc[5] = 99.0
        survivors, _promoted = select(range(6), self.TV, auc, keep=3, auc_promotions=1)
        assert survivors == [0, 1, 5]

    def test_auc_promotion_is_disjoint(self):
        """A candidate already selected by TV cannot occupy the AUC slot."""
        auc = {i: 0.0 for i in range(6)}
        auc[0] = 99.0  # best TV also best AUC
        auc[4] = 50.0
        survivors, _promoted = select(range(6), self.TV, auc, keep=3, auc_promotions=1)
        assert survivors == [0, 1, 4]

    def test_keep_all_when_small(self):
        auc = {i: 0.0 for i in range(3)}
        tv = {i: float(i) for i in range(3)}
        survivors, _promoted = select(range(3), tv, auc, keep=5, auc_promotions=1)
        assert survivors == [0, 1, 2]

    def test_promotions_cannot_exceed_keep(self):
        with pytest.raises(SearchBudgetError):
            select(range(4), self.TV, {i: 0 for i in range(4)}, 2, 3)

    def test_detailed_reports_auc_channel(self):
        auc = {i: 0.0 for i in range(6)}
        auc[5] = 99.0
        survivors, promoted = select(range(6), self.TV, auc, keep=3, auc_promotions=1)
        assert survivors == [0, 1, 5]
        assert promoted == [5]

    def test_detailed_promoted_even_when_tv_rank_inside_keep(self):
        """A candidate at TV rank between keep-p and keep that enters via
        the AUC slot is still an AUC promotion — the decision, not a
        re-derivation against the keep cutoff, is what gets reported."""
        auc = {i: 0.0 for i in range(6)}
        auc[2] = 99.0  # TV rank 2 (< keep=3) but selected through AUC
        survivors, promoted = select(range(6), self.TV, auc, keep=3, auc_promotions=1)
        assert survivors == [0, 1, 2]
        assert promoted == [2]

    def test_detailed_backfill_is_not_promotion(self):
        """When AUC cannot supply fresh candidates, TV backfill fills the
        quota and no promotion is attributed."""
        tv = {i: float(i) for i in range(3)}
        auc = {i: 0.0 for i in range(3)}
        survivors, promoted = select(range(3), tv, auc, keep=5, auc_promotions=1)
        assert survivors == [0, 1, 2]
        assert promoted == []

    @given(
        st.integers(2, 20),
        st.integers(1, 10),
        st.integers(0, 3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50)
    def test_invariants(self, n, keep, promotions, seed):
        promotions = min(promotions, keep)
        rng = np.random.default_rng(seed)
        tv = {i: float(rng.uniform(0, 10)) for i in range(n)}
        auc = {i: float(rng.uniform(0, 10)) for i in range(n)}
        survivors, promoted = select(range(n), tv, auc, keep, promotions)
        assert len(survivors) == min(keep, n)
        assert len(set(survivors)) == len(survivors)
        assert set(promoted) <= set(survivors)
        assert len(promoted) <= promotions
        if keep < n and promotions == 0:
            # pure TV: survivors are exactly the TV-best
            best = sorted(range(n), key=lambda i: (tv[i], i))[:keep]
            assert sorted(survivors) == sorted(best)
            assert promoted == []
