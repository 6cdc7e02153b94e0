"""Successive halving (SH) and the paper's modified variant (MSH).

Section 3.3: a batch of N hardware configurations runs SW mapping search in
rounds; each round the budget per surviving candidate grows geometrically
and only a subset survives.  Default SH promotes purely on terminal value
(TV).  MSH additionally promotes the steepest *convergers*, quantified by
the area-under-curve (AUC) between a candidate's best-so-far loss curve and
the horizontal line at its final loss (Fig. 4b): curves that dropped a lot
recently have large AUC and "should be given a second chance".

Promotion rule (MSH):

    H^k = H_TV^(k-p)  U  H_AUC^(p)    with the union disjoint,

with ``k = floor(0.5 N)`` and ``p = floor(0.15 N)`` in all UNICO
experiments; ``p = 0`` recovers default SH.

The helpers work on the best-so-far curves of any resumable trials, so the
MOBOHB baseline's plain SH rounds use them too; ``Unico._run_msh`` drives
the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SearchBudgetError

__all__ = [
    "RoundPlan",
    "terminal_values",
    "relative_auc_scores",
    "plan_rounds",
    "select_survivors_soa",
]

DEFAULT_ETA = 2.0
DEFAULT_KEEP_FRACTION = 0.5


def _pad_curves(curves: Sequence[np.ndarray]) -> np.ndarray:
    """Stack ragged curves into one ``(n, max_len)`` NaN-padded matrix."""
    arrays = [np.asarray(curve, dtype=float) for curve in curves]
    width = max((a.size for a in arrays), default=0)
    matrix = np.full((len(arrays), max(width, 1)), np.nan)
    for row, array in enumerate(arrays):
        matrix[row, : array.size] = array
    return matrix


def terminal_values(curves: Sequence[np.ndarray]) -> np.ndarray:
    """TV of every curve: its current best objective (lower is better);
    an empty curve scores ``inf``."""
    values = np.full(len(curves), np.inf)
    for row, curve in enumerate(curves):
        curve = np.asarray(curve, dtype=float)
        if curve.size:
            values[row] = curve[-1]
    return values


def relative_auc_scores(curves: Sequence[np.ndarray]) -> np.ndarray:
    """AUC of Fig. 4b for every curve, normalized by its terminal value.

    A curve's AUC is the trapezoid area between its finite values and its
    terminal-value line: large when the candidate was recently far above
    its current best, i.e. still converging steeply.  Non-finite stretches
    contribute nothing (an always-infeasible candidate scores 0), and a
    terminal value ``<= 0`` leaves the AUC raw.

    Works on the NaN-padded curve matrix with masked reductions.  The
    trapezoid sum over each curve's compressed finite values telescopes
    (unit spacing, heights ``h_i = v_i - end``, ``h_last = 0``) to

        ``sum(h) - (h_first + h_last) / 2 = sum(v) - m*end - (first - end)/2``

    so no per-candidate Python loop over curve points is needed.
    """
    if not len(curves):
        return np.zeros(0)
    matrix = _pad_curves(curves)
    finite = np.isfinite(matrix)
    counts = finite.sum(axis=1)
    # first/last finite value per row (rows with < 2 finite points score 0)
    any_rows = counts > 0
    first_idx = np.argmax(finite, axis=1)
    last_idx = matrix.shape[1] - 1 - np.argmax(finite[:, ::-1], axis=1)
    rows = np.arange(matrix.shape[0])
    first = np.where(any_rows, matrix[rows, first_idx], 0.0)
    end = np.where(any_rows, matrix[rows, last_idx], 0.0)
    totals = np.where(finite, matrix, 0.0).sum(axis=1)
    auc = totals - counts * end - (first - end) / 2.0
    scores = np.where(end > 0, auc / np.where(end > 0, end, 1.0), auc)
    scores[counts < 2] = 0.0
    return scores


@dataclass(frozen=True)
class RoundPlan:
    """One SH round: cumulative per-candidate budget and survivor count."""

    round_index: int
    cumulative_budget: int
    num_candidates: int


def plan_rounds(
    num_candidates: int,
    max_budget: int,
    eta: float = DEFAULT_ETA,
    keep_fraction: float = DEFAULT_KEEP_FRACTION,
) -> List[RoundPlan]:
    """Geometric budget schedule ending at ``max_budget`` per survivor.

    Round j (0-based) runs ``n_j = max(1, floor(N * keep^j))`` candidates up
    to cumulative budget ``max_budget * eta^-(R-1-j)`` where R is the number
    of rounds needed to reduce N to 1 at ``keep_fraction`` per round.
    """
    if num_candidates < 1:
        raise SearchBudgetError(f"need >= 1 candidate, got {num_candidates}")
    if max_budget < 1:
        raise SearchBudgetError(f"max_budget must be >= 1, got {max_budget}")
    if not 0 < keep_fraction < 1:
        raise SearchBudgetError(f"keep_fraction must be in (0,1), got {keep_fraction}")
    if eta <= 1:
        raise SearchBudgetError(f"eta must be > 1, got {eta}")
    num_rounds = max(
        1, int(np.ceil(np.log(num_candidates) / np.log(1.0 / keep_fraction)))
    )
    plans: List[RoundPlan] = []
    count = num_candidates
    for j in range(num_rounds):
        budget = int(round(max_budget * eta ** (-(num_rounds - 1 - j))))
        budget = max(1, budget)
        plans.append(RoundPlan(j, budget, count))
        count = max(1, int(np.floor(count * keep_fraction)))
    # budgets must be strictly increasing so every round buys new work
    for i in range(1, len(plans)):
        if plans[i].cumulative_budget <= plans[i - 1].cumulative_budget:
            plans[i] = RoundPlan(
                plans[i].round_index,
                plans[i - 1].cumulative_budget + 1,
                plans[i].num_candidates,
            )
    return plans


def select_survivors_soa(
    candidate_ids: Sequence[int],
    tvs: np.ndarray,
    aucs: np.ndarray,
    keep: int,
    auc_promotions: int,
) -> Tuple[List[int], List[int]]:
    """MSH promotion: top ``keep - p`` by TV plus top ``p`` fresh by AUC.

    The scores are arrays positionally aligned with ``candidate_ids`` (as
    :func:`terminal_values` / :func:`relative_auc_scores` return them);
    ties break on the id.  Returns ``(survivors, promoted)``: the TV picks
    first, then the AUC promotions, and ``promoted`` is exactly the
    survivors admitted through the AUC channel.  ``auc_promotions = 0``
    degenerates to default SH.
    """
    ids = np.asarray(candidate_ids, dtype=np.int64)
    tvs = np.asarray(tvs, dtype=float)
    aucs = np.asarray(aucs, dtype=float)
    if keep < 0 or auc_promotions < 0:
        raise SearchBudgetError("keep and auc_promotions must be non-negative")
    if auc_promotions > keep:
        raise SearchBudgetError(
            f"auc_promotions ({auc_promotions}) cannot exceed keep ({keep})"
        )
    if keep >= ids.size:
        return [int(i) for i in ids], []
    # lexsort: last key is primary; ids break score ties, as in the dict path
    tv_order = np.lexsort((ids, tvs))
    auc_order = np.lexsort((ids, -aucs))
    tv_selected = [int(ids[pos]) for pos in tv_order[: keep - auc_promotions]]
    selected = np.zeros(ids.size, dtype=bool)
    selected[tv_order[: keep - auc_promotions]] = True
    auc_selected: List[int] = []
    for pos in auc_order:
        if len(auc_selected) >= auc_promotions:
            break
        if not selected[pos]:
            auc_selected.append(int(ids[pos]))
            selected[pos] = True
    # backfill from TV order if AUC could not supply enough fresh candidates
    for pos in tv_order:
        if len(tv_selected) + len(auc_selected) >= keep:
            break
        if not selected[pos]:
            tv_selected.append(int(ids[pos]))
            selected[pos] = True
    return tv_selected + auc_selected, auc_selected
