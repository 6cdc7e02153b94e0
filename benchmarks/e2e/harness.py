"""What one benchmark run does: set-up children, repetitions, layer metrics.

Imported by ``run.py`` only after it has fixed the runtime environment
(BLAS thread counts, hash seed), because everything here imports NumPy.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy
import scipy

from benchmarks.e2e import metrics as M
from benchmarks.e2e import probe, spans
from benchmarks.e2e import workloads as W
from benchmarks.e2e.run import BENCH_DIR, ROOT

#: where a tracked repetition's run store lives until the repetition ends:
#: the driver lets a run write only inside its checkout
SCRATCH = str(BENCH_DIR)
HISTORY = BENCH_DIR / "results" / "history.jsonl"


# ------------------------------------------------------------------ set-up
def setup_child(args: argparse.Namespace) -> int:
    """Body of one fresh interpreter timed for ``setup_s``: ready, then exit."""
    workload = W.WORKLOADS[args.workload]
    with W.route_resources(workload, SCRATCH) as route:
        W.build_ready_optimizer(workload, args.search_seed, route)
        print("ready", flush=True)
    return 0


def measure_setup(workload, search_seed: int) -> Tuple[float, float]:
    """Fresh interpreter start -> optimizer ready for the route, in a child.

    Returns (reference-speed seconds, raw seconds), like :func:`_timed`.
    """
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--setup-child",
        "--workload", workload.name, "--search-seed", str(search_seed),
    ]
    before = probe.run()
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup child failed (exit {child.returncode}): {line!r}")
    return probe.scaled(elapsed, before, probe.run()), elapsed


# ------------------------------------------------------------- repetitions
class Attempts:
    """Counts co-searches and holds the facts every one must reproduce."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.expected: Optional[Dict] = None

    def run(self, label: str, search):
        """Run ``search()`` -> (seconds, result, ...); None if it failed."""
        self.attempted += 1
        try:
            outcome = search()
        except Exception:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        result = outcome[1]
        facts = {
            "digest": W.result_digest(result),
            "sim_cost_h": result.total_time_h,
            "front_hypervolume": W.front_hypervolume(result),
            "engine_queries": result.total_engine_queries,
        }
        if self.expected is None:
            self.expected = facts
        elif facts != self.expected:
            print(f"{label}: result differs: {facts} != {self.expected}", file=sys.stderr)
            self.failed += 1
            return None
        return outcome


def _timed(workload, search_seed: int, route):
    """``gc.collect()``, then the co-search under the clock, between two probes.

    Returns (reference-speed seconds, result, raw seconds).
    """
    gc.collect()
    before = probe.run()
    start = time.perf_counter()
    result = W.cosearch(workload, search_seed, route)
    wall = time.perf_counter() - start
    return probe.scaled(wall, before, probe.run()), result, wall


def timed_search(workload, search_seed: int):
    """One repetition: cold route resources (untimed), then the timed search."""
    with W.route_resources(workload, SCRATCH) as route:
        return _timed(workload, search_seed, route)


def traced_search(workload, search_seed: int):
    """The traced repetition: layer spans installed around the same search."""
    recorder = spans.SpanRecorder()
    with W.route_resources(workload, SCRATCH) as route:
        spans.install_layer_spans(recorder)
        try:
            wall, result, _raw_wall = _timed(workload, search_seed, route)
        finally:
            recorder.restore()
        route_counts = W.route_counters(workload, route, result)
    return wall, result, recorder, route_counts


def call_counted_search(workload, search_seed: int):
    """One repetition under ``sys.setprofile``: Python + C call events."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    with W.route_resources(workload, SCRATCH) as route:
        gc.collect()
        sys.setprofile(profiler)
        try:
            result = W.cosearch(workload, search_seed, route)
        finally:
            sys.setprofile(None)
    return calls, result


def layer_values(traced, py_calls: int, cosearch_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric from the traced repetition's spans and counters."""
    traced_wall_s, result, recorder, route_counts = traced
    self_s, calls, counts = recorder.self_times(), recorder.calls(), recorder.counts
    root = recorder.root_duration()
    optimizer = recorder.seen["optimizer"][0]
    engine = optimizer.engine.stats()
    pool = engine.get("pool", {})
    searches = [trial.search for trial in recorder.seen["trial"]]
    speculative = sum(search.num_speculative_evals for search in searches)
    misses = sum(search.num_speculation_misses for search in searches)
    kernel_items = counts["kernel_items"]
    return {
        "core.optimize_s": root,
        "core.self_s": self_s["core.optimize"],
        "core.trial_init_s": self_s["core.trial_init"],
        "core.assess_s": self_s["core.assess"],
        "core.hw_evaluated": result.total_hw_evaluated,
        "core.iterations": result.extras["iterations"],
        "core.py_calls": py_calls,
        "optim.suggest_self_s": self_s["optim.suggest"],
        "optim.gp_fit_s": self_s["optim.gp_fit"],
        "optim.gp_fit_calls": calls["optim.gp_fit"],
        "optim.gp_predict_s": self_s["optim.gp_predict"],
        "optim.gp_train_points": counts["gp_train_points"],
        "optim.msh_bookkeeping_s": self_s["optim.msh_bookkeeping"],
        "optim.msh_rounds": counts["msh_rounds"],
        "optim.msh_auc_promotions": counts["msh_auc_promotions"],
        "mapping.search_self_s": self_s["mapping.search"],
        "mapping.run_calls": calls["mapping.search"],
        "mapping.speculative_evals": speculative,
        "mapping.speculation_miss_share": misses / speculative if speculative else 0.0,
        "costmodel.engine_self_s": self_s["costmodel.engine"],
        "costmodel.kernel_s": self_s["costmodel.kernel"],
        "costmodel.kernel_calls": calls["costmodel.kernel"],
        "costmodel.kernel_items": kernel_items,
        "costmodel.kernel_us_per_item": (
            self_s["costmodel.kernel"] / kernel_items * 1e6 if kernel_items else 0.0
        ),
        "costmodel.engine_queries": engine["num_queries"],
        "costmodel.cache_hit_share": engine["cache_hit_rate"],
        "costmodel.batch_calls": engine["batch_queries"],
        "costmodel.mean_batch_size": engine["mean_batch_size"],
        "costmodel.queries_per_s": engine["num_queries"] / cosearch_wall_s,
        "costmodel.codec_s": self_s["costmodel.codec"],
        "costmodel.remote_retries": engine.get("num_network_retries", 0),
        "costmodel.circuit_rejections": engine.get("num_circuit_rejections", 0),
        "costmodel.server_handle_s": route_counts.get("server_handle_s", 0.0),
        "costmodel.server_compute_s": route_counts.get("server_compute_s", 0.0),
        "costmodel.server_requests": route_counts.get("server_requests", 0),
        "fleet.transport_s": self_s["fleet.transport"],
        "fleet.requests": calls["fleet.transport"],
        "fleet.wire_s": self_s["fleet.transport"] - route_counts.get("server_handle_s", 0.0),
        "fleet.bytes_sent": counts["bytes_sent"],
        "fleet.bytes_received": counts["bytes_received"],
        "fleet.conns_created": pool.get("num_created", 0),
        "fleet.stale_retries": pool.get("num_stale_retries", 0),
        "fleet.replica_rss_mb": route_counts.get("replica_rss_mb", 0.0),
        "tracking.append_s": self_s["tracking.append"],
        "tracking.appends": calls["tracking.append"],
        "tracking.journal_bytes": route_counts.get("journal_bytes", 0),
        "tracking.tracker_self_s": self_s["tracking.tracker"],
        "tracking.checkpoint_s": self_s["tracking.checkpoint"],
        "tracking.checkpoints": calls["tracking.checkpoint"],
        "tracking.sample_events": counts["sample_events"],
        "bench.trace_overhead_share": (traced_wall_s - cosearch_wall_s) / cosearch_wall_s,
        "bench.span_identity_err_s": abs(root - sum(self_s.values())),
    }


# ------------------------------------------------------------ one workload
def environment() -> Dict:
    """The ``env`` block: what a timing can depend on besides the code."""
    def git(*command: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git",) + command, cwd=ROOT, capture_output=True, text=True, check=False
            )
        except OSError:  # no git binary: the driver's checkout is not a repository
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            var: value for var, value in sorted(os.environ.items())
            if var.endswith("_NUM_THREADS")
        },
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def run_workload(args: argparse.Namespace) -> int:
    workload, search_seed = W.WORKLOADS[args.workload], args.search_seed
    seconds = W.RUN_SECONDS if args.seconds is None else args.seconds
    want_e2e, want_layers = args.trace != 1, args.trace != 0
    timings: Dict[str, Dict] = {}
    values: Dict[str, float] = {}

    attempts = Attempts()
    if workload.checks_local_reference:
        attempts.run("local reference", lambda: (None, W.local_reference(workload, search_seed)))
    attempts.run("warm-up", lambda: timed_search(workload, search_seed))

    # every host timing is a (reference-speed seconds, raw seconds) pair
    setups: List[Tuple[float, float]] = []
    if want_e2e:
        # the first child also pays for bytecode and page-cache misses
        setups = [measure_setup(workload, search_seed) for _ in range(args.setup_samples + 1)][1:]

    walls: List[Tuple[float, float]] = []
    region_start = time.perf_counter()
    done = 0
    while done < W.MIN_REPS or time.perf_counter() - region_start < seconds:
        outcome = attempts.run(f"repetition {done}", lambda: timed_search(workload, search_seed))
        if outcome is not None:
            walls.append((outcome[0], outcome[2]))
        done += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {
        "cosearch_wall_s": [scaled for scaled, _raw in walls],
        "cosearch_wall_raw_s": [raw for _scaled, raw in walls],
        "setup_s": [scaled for scaled, _raw in setups],
        "setup_raw_s": [raw for _scaled, raw in setups],
    }

    identity_ok = True
    if walls and attempts.expected is not None:
        timings = {name: M.quantiles(series) for name, series in samples.items() if series}
        cosearch_wall_s = timings["cosearch_wall_s"]["p25"]
        if want_e2e:
            values.update(
                cosearch_wall_s=cosearch_wall_s,
                setup_s=timings["setup_s"]["p25"],
                peak_rss_mb=peak_rss_mb,
                sim_cost_h=attempts.expected["sim_cost_h"],
                front_hypervolume=attempts.expected["front_hypervolume"],
            )
        if want_layers:
            traced = attempts.run("traced repetition", lambda: traced_search(workload, search_seed))
            counted = (0, None)
            if workload.counts_py_calls:
                counted = attempts.run(
                    "call-counted repetition",
                    lambda: call_counted_search(workload, search_seed),
                )
            if traced is not None and counted is not None:
                values.update(layer_values(traced, counted[0], cosearch_wall_s))
                identity_ok = values["bench.span_identity_err_s"] <= 1e-6
                if args.trace_out:
                    traced[2].write_chrome_trace(args.trace_out)
    if want_layers:
        values["failed_share"] = attempts.failed / attempts.attempted

    expected_names = [m.name for m in M.END_TO_END] if want_e2e else []
    if want_layers:
        expected_names += [M.FAILED_SHARE.name] + [m.name for m in M.PER_LAYER]
    correct = attempts.failed == 0 and identity_ok and set(values) == set(expected_names)

    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "search_seed": search_seed,
        "env": environment(),
        "digest": attempts.expected["digest"] if attempts.expected else None,
        "timings": timings,
        "samples": samples,
        "metrics": {
            name: {**dataclasses.asdict(M.BY_NAME[name]), "value": values[name]}
            for name in expected_names
            if name in values
        },
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "correct": correct,
    }
    if args.record:
        HISTORY.parent.mkdir(exist_ok=True)
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(summary, sort_keys=True) + "\n")
    print_report(summary)
    return 0 if correct else 1


def print_report(summary: Dict) -> None:
    """The table for people, the summary line and, last, the driver's result line."""
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"search-seed {summary['search_seed']}  "
          f"failed_share {summary['failed']}/{summary['attempted']}")
    for name, stats in summary["timings"].items():
        print(f"  {name:<18} n={stats['n']} min={stats['min']:.4f} p25={stats['p25']:.4f} "
              f"median={stats['median']:.4f} p75={stats['p75']:.4f}")
    print(f"  {'metric':<34} {'value':>16} {'unit':<6} {'better':<7} bound")
    for name, entry in summary["metrics"].items():
        bound = "" if entry["bound"] is None else f"{entry['bound']:g}"
        print(f"  {name:<34} {entry['value']:>16.6f} {entry['unit']:<6} "
              f"{entry['better']:<7} {bound}")
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in summary["metrics"].items()
        },
    }))
