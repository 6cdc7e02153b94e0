"""The hardware robustness (sensitivity) metric ``R`` of Section 3.4.

After SW mapping search finishes for a hardware configuration, two points
in (latency, power) space are compared:

* the **optimal** mapping — the final converged incumbent, and
* a **sub-optimal** mapping — the evaluated candidate whose objective sits
  at the ``(1 - alpha)`` *right-tail* percentile of the whole loss history
  (alpha = 0.05): 95% of the evaluated mappings are worse, so it is a
  promising-but-not-best choice, per Fig. 5(a).

The metric is the geometric formula of Eq. (2):

    R = Delta * (1 + F(theta)),      F(theta) = (6/pi^2) theta^2
                                               - (5/pi) theta + 1,

where ``Delta`` is the 2-norm distance between the two points (computed on
*relative* latency/power deltas so R is scale-free across hardware), and
``theta in [0, pi]`` encodes how the improvement sub-optimal -> optimal
splits between power and latency:

* ``theta < pi/2``  — power decreased along with latency (favorable),
* ``theta = pi/2``  — power unchanged (F = 0, so R = Delta),
* ``theta > pi/2``  — power *increased* while latency improved (least
  favorable; F rises to 2, so R approaches 3 Delta).

``R = 0`` (ideal robustness) iff the two mappings have identical PPA —
the hardware's quality barely depends on which good mapping the search
happened to return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.mapping.base import MappingSearchPoint

DEFAULT_ALPHA = 0.05


def f_theta(theta: float) -> float:
    """The asymmetric penalty polynomial of Fig. 5(c)."""
    if not 0.0 <= theta <= math.pi + 1e-9:
        raise ValueError(f"theta must be in [0, pi], got {theta}")
    return (6.0 / math.pi**2) * theta**2 - (5.0 / math.pi) * theta + 1.0


@dataclass(frozen=True)
class RobustnessResult:
    """R plus its geometric ingredients (for analysis and tests)."""

    r_value: float
    delta: float
    theta: float
    optimal_latency_s: float
    optimal_power_w: float
    suboptimal_latency_s: float
    suboptimal_power_w: float

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.r_value))


_INFINITE_RESULT = RobustnessResult(
    r_value=float("inf"),
    delta=float("inf"),
    theta=math.pi,
    optimal_latency_s=float("inf"),
    optimal_power_w=float("inf"),
    suboptimal_latency_s=float("inf"),
    suboptimal_power_w=float("inf"),
)


def _select_suboptimal(
    history: Sequence[MappingSearchPoint], alpha: float
) -> Optional[MappingSearchPoint]:
    """The point at the alpha-quantile of the finite loss history.

    The loss distribution's *right tail* holds the bad mappings; the value
    below which only an ``alpha`` fraction of losses fall is the
    ``(1 - alpha)`` right-tail percentile of the paper.
    """
    finite_points = [
        point
        for point in history
        if math.isfinite(point.trial_objective)
        and math.isfinite(point.trial_latency_s)
        and math.isfinite(point.trial_power_w)
    ]
    if not finite_points:
        return None
    losses = np.array([point.trial_objective for point in finite_points])
    target = float(np.quantile(losses, alpha))
    best = float(losses.min())
    # prefer the candidate closest to the quantile that is not the best itself
    candidates = sorted(
        finite_points, key=lambda point: abs(point.trial_objective - target)
    )
    for point in candidates:
        if point.trial_objective > best:
            return point
    return candidates[0]


def robustness_metric(
    history: Sequence[MappingSearchPoint],
    alpha: float = DEFAULT_ALPHA,
) -> RobustnessResult:
    """Compute ``R`` from a completed SW-mapping search trace.

    Returns an infinite result when the search never reached a feasible
    network mapping (maximum sensitivity: the hardware cannot be trusted).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not history:
        return _INFINITE_RESULT
    final = history[-1]
    if not (
        np.isfinite(final.best_latency_s) and np.isfinite(final.best_power_w)
    ):
        return _INFINITE_RESULT
    suboptimal = _select_suboptimal(history, alpha)
    if suboptimal is None:
        return _INFINITE_RESULT

    opt_lat, opt_pow = final.best_latency_s, final.best_power_w
    sub_lat, sub_pow = suboptimal.trial_latency_s, suboptimal.trial_power_w

    # relative deltas (optimal as the reference scale) keep R dimensionless
    rel_dlat = (sub_lat - opt_lat) / max(opt_lat, 1e-30)
    rel_dpow = (sub_pow - opt_pow) / max(opt_pow, 1e-30)
    delta = float(math.hypot(rel_dlat, rel_dpow))
    if delta <= 1e-12:
        return RobustnessResult(
            r_value=0.0,
            delta=0.0,
            theta=math.pi / 2.0,
            optimal_latency_s=opt_lat,
            optimal_power_w=opt_pow,
            suboptimal_latency_s=sub_lat,
            suboptimal_power_w=sub_pow,
        )

    # theta: direction of the improvement sub-optimal -> optimal.
    #   power decrease  (rel_dpow > 0, i.e. suboptimal was hungrier)  -> theta < pi/2
    #   power unchanged                                               -> theta = pi/2
    #   power increase  (optimal draws more power than sub-optimal)   -> theta > pi/2
    latency_gain = abs(rel_dlat)
    power_gain = rel_dpow  # positive when optimal uses LESS power
    theta = math.atan2(latency_gain, power_gain)
    theta = min(max(theta, 0.0), math.pi)

    r_value = delta * (1.0 + f_theta(theta))
    return RobustnessResult(
        r_value=r_value,
        delta=delta,
        theta=theta,
        optimal_latency_s=opt_lat,
        optimal_power_w=opt_pow,
        suboptimal_latency_s=sub_lat,
        suboptimal_power_w=sub_pow,
    )
