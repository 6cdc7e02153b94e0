"""The benchmark's metric dictionary: names, units, direction, bounds.

The names are fixed by the issue that defined the benchmark; every later
performance or simplicity claim is stated in them.  ``BENCHMARK.json`` lists
exactly these (``test_e2e_smoke.py`` checks that it does).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

#: a relative worsening of an exact-match metric that can never be noise:
#: one simulated query moves ``sim_cost_h`` by >= 3e-4 of its value
EXACT = 1e-9


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # lower | higher
    #: relative worsening that counts as a regression (end-to-end only)
    bound: Optional[float] = None


#: The two host timings are in reference-speed seconds (``probe.py``) and carry
#: 25%, the widest bound the driver allows, not the issue's 10%: the reference
#: box changes speed by up to 2x for minutes at a time, raw seconds of identical
#: code spread by 20-32% over ten runs (the driver refused them), and the
#: probe-scaled ones still by 6-14% (README, "Noise floor").  Claims of a gain
#: are judged on paired runs, never on this.
END_TO_END: Tuple[Metric, ...] = (
    Metric("cosearch_wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("sim_cost_h", "sim_h", "lower", EXACT),
    Metric("front_hypervolume", "hv", "higher", EXACT),
)

#: Reported with every run and must be 0.  It rides with the per-layer
#: metrics in BENCHMARK.json because the driver divides an end-to-end
#: metric's spread by its median, and this one's median is 0; the contract's
#: own ``failed`` / ``attempted`` keys carry the same information.
FAILED_SHARE = Metric("failed_share", "ratio", "lower")


def _layer(prefix: str, rows: Sequence[Tuple[str, str, str]]) -> List[Metric]:
    return [Metric(f"{prefix}.{name}", unit, better) for name, unit, better in rows]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer(
        "core",
        [
            ("optimize_s", "s", "lower"),
            ("self_s", "s", "lower"),
            ("trial_init_s", "s", "lower"),
            ("assess_s", "s", "lower"),
            ("hw_evaluated", "count", "higher"),
            ("iterations", "count", "higher"),
            ("py_calls", "count", "lower"),
        ],
    )
    + _layer(
        "optim",
        [
            ("suggest_self_s", "s", "lower"),
            ("gp_fit_s", "s", "lower"),
            ("gp_fit_calls", "count", "lower"),
            ("gp_predict_s", "s", "lower"),
            ("gp_train_points", "count", "higher"),
            ("msh_bookkeeping_s", "s", "lower"),
            ("msh_rounds", "count", "lower"),
            ("msh_auc_promotions", "count", "higher"),
        ],
    )
    + _layer(
        "mapping",
        [
            ("search_self_s", "s", "lower"),
            ("run_calls", "count", "lower"),
            ("speculative_evals", "count", "higher"),
            ("speculation_miss_share", "ratio", "lower"),
        ],
    )
    + _layer(
        "costmodel",
        [
            ("engine_self_s", "s", "lower"),
            ("kernel_s", "s", "lower"),
            ("kernel_calls", "count", "lower"),
            ("kernel_items", "count", "lower"),
            ("kernel_us_per_item", "us", "lower"),
            ("engine_queries", "count", "lower"),
            ("cache_hit_share", "ratio", "higher"),
            ("batch_calls", "count", "lower"),
            ("mean_batch_size", "count", "higher"),
            ("queries_per_s", "1/s", "higher"),
            ("codec_s", "s", "lower"),
            ("remote_retries", "count", "lower"),
            ("circuit_rejections", "count", "lower"),
            ("server_handle_s", "s", "lower"),
            ("server_compute_s", "s", "lower"),
            ("server_requests", "count", "lower"),
        ],
    )
    + _layer(
        "fleet",
        [
            ("transport_s", "s", "lower"),
            ("requests", "count", "lower"),
            ("wire_s", "s", "lower"),
            ("bytes_sent", "B", "lower"),
            ("bytes_received", "B", "lower"),
            ("conns_created", "count", "lower"),
            ("stale_retries", "count", "lower"),
            ("replica_rss_mb", "MB", "lower"),
        ],
    )
    + _layer(
        "tracking",
        [
            ("append_s", "s", "lower"),
            ("appends", "count", "lower"),
            ("journal_bytes", "B", "lower"),
            ("tracker_self_s", "s", "lower"),
            ("checkpoint_s", "s", "lower"),
            ("checkpoints", "count", "higher"),
            ("sample_events", "count", "higher"),
        ],
    )
    + _layer(
        "bench",
        [
            ("trace_overhead_share", "ratio", "lower"),
            ("span_identity_err_s", "s", "lower"),
        ],
    )
)

BY_NAME: Dict[str, Metric] = {
    metric.name: metric for metric in END_TO_END + (FAILED_SHARE,) + PER_LAYER
}


def quantiles(samples: Sequence[float]) -> Dict[str, float]:
    """``n, min, p25, median, p75`` of a timing sample.

    The named timing metrics are the lower quartile ``p25 = sorted[n // 4]``,
    as the issue defines them; on probe-scaled samples it repeats as well as
    the median (README, "Noise floor"), which is reported beside it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0 or not all(math.isfinite(value) for value in ordered):
        raise ValueError(f"need finite samples, got {list(samples)!r}")
    return {
        "n": n,
        "min": ordered[0],
        "p25": ordered[n // 4],
        "median": ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2,
        "p75": ordered[min(n - 1, (3 * n) // 4)],
    }
