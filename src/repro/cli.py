"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``networks`` — list the registered workloads with size summaries.
* ``run`` — one co-search cell (method x scenario x workload) and print
  the Pareto front + selected design; ``a+b`` co-optimizes one
  accelerator for several networks, one mapping job per network.
* ``reproduce`` — regenerate the paper's tables and figures (``--only``
  names a subset), each distinct co-search run once; ``report`` renders
  the saved records as markdown.
* ``serve`` — expose a PPA estimation engine (``--engine maestro``,
  ``timeloop`` or ``ascend``) as the Section 3.5 REST service (for
  master-slave deployments).
* ``fleet`` — run N sharded service replicas under one supervisor
  (``fleet serve``), health-check running replicas once (``fleet
  status``), or watch the one live dashboard — evals/s history, cache
  hit rate and scrape latency (``fleet top``, scraping the replicas
  itself or polling a hub's ``/fleet/metrics`` with ``--hub``).
* ``hub`` — the control-plane service (``hub serve``): run lifecycle
  endpoints, live SSE journal streaming and fleet-wide metrics
  aggregation, plus thin clients (``hub submit``/``runs``/``cancel``).
* ``runs tail`` — a run's last journal events (bounded read), or a live
  typed feed with ``--follow`` (local polling or hub SSE via ``--hub``).
* ``stats`` — query a running PPA service's ``GET /metrics`` endpoint and
  summarize query counts, cache behaviour and request latency.
* ``learned`` — train/evaluate a journal-distilled learned cost model
  (``repro learned train``), then screen a run with it
  (``repro run ... --screen model.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from http.client import HTTPException
from typing import List, Optional

from repro.methods import ENGINES, METHODS, SCENARIOS
from repro.workloads.registry import available_networks, get_network


def _cmd_networks(_args) -> int:
    print(f"{'name':<20s}{'family':<14s}{'year':<6s}"
          f"{'layers':<8s}{'GMACs':>8s}")
    for name in available_networks():
        network = get_network(name)
        print(
            f"{name:<20s}{network.family:<14s}{network.year:<6d}"
            f"{network.num_layers:<8d}{network.total_macs / 1e9:8.2f}"
        )
    return 0


def _print_result(result, method: str, network: str, scenario: str) -> None:
    print(
        f"{method} on {network} ({scenario}): "
        f"{result.total_hw_evaluated} hardware evaluated, "
        f"{result.total_time_h:.2f} simulated hours"
    )
    if "run_id" in result.extras:
        print(f"tracked as run {result.extras['run_id']}")
    print(f"Pareto front ({len(result.pareto)} designs):")
    for design, point in zip(result.pareto.items, result.pareto.points):
        print(
            f"  L={point[0] * 1e3:10.3f} ms  P={point[1] * 1e3:8.1f} mW  "
            f"A={point[2]:6.2f} mm2   {design.hw}"
        )
    best = result.best_design()
    if best is not None:
        print(f"Selected (min-Euclidean): {best.hw}")


def _cmd_run(args) -> int:
    if args.trace and not args.track:
        print("error: --trace requires --track (spans live in the run "
              "directory)", file=sys.stderr)
        return 2
    if args.record_samples and not args.track:
        print("error: --record-samples requires --track (samples are "
              "journal events)", file=sys.stderr)
        return 2
    from repro.experiments.harness import run_method

    result = run_method(
        args.method,
        args.scenario,
        args.network,
        args.preset,
        seed=args.seed,
        run_store=args.runs_dir if args.track else None,
        checkpoint_every=args.checkpoint_every,
        eval_batch_size=args.batch_size,
        trace=args.trace,
        tool=args.tool,
        record_samples=args.record_samples,
        screen=args.screen,
        screen_topk=args.screen_topk,
    )
    _print_result(result, args.method, args.network, args.scenario)
    if "trace_path" in result.extras:
        print(f"trace written to {result.extras['trace_path']} "
              f"(trace id {result.extras['trace_id']})")
    screening = result.extras.get("screening")
    if screening:
        print(
            f"screening: {screening.get('forwarded', 0)} forwarded / "
            f"{screening.get('candidates_seen', 0)} candidates seen "
            f"({screening.get('evals_saved', 0)} analytical evals saved, "
            f"precision {screening.get('precision', 0.0):.1%})"
        )
    return 0


# ------------------------------------------------------------------ learned
def _cmd_learned_train(args) -> int:
    from repro.learned.dataset import build_dataset
    from repro.learned.model import LearnedCostModel

    dataset = build_dataset(args.runs_dir)
    stats = dataset.stats
    print(
        f"dataset: {len(dataset)} samples from {stats['journals']} journals "
        f"({stats['duplicates']} duplicates, {stats['skipped']} skipped, "
        f"{stats['truncated_journals']} truncated)"
    )
    if not len(dataset):
        print(
            "error: no engine_sample events found — record training data "
            "first with `repro run ... --track --record-samples`",
            file=sys.stderr,
        )
        return 1
    model = LearnedCostModel.fit(
        dataset.x,
        dataset.latency_s,
        dataset.energy_j,
        dataset.feasible,
        seed=args.seed,
        hidden=args.hidden,
        ensemble=args.ensemble,
        epochs=args.epochs,
        meta={"runs_dir": str(args.runs_dir), "dataset": stats},
    )
    model.save(args.out)
    meta = model.meta
    print(
        f"trained on {meta['n_train']} rows ({meta['n_feasible']} feasible), "
        f"val MAE log-latency {meta['val_mae_log_latency']:.4f}, "
        f"log-energy {meta['val_mae_log_energy']:.4f}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_learned_eval(args) -> int:
    import numpy as np

    from repro.learned.dataset import build_dataset
    from repro.learned.model import LearnedCostModel

    model = LearnedCostModel.load(args.model)
    dataset = build_dataset(args.runs_dir)
    if not len(dataset):
        print("error: no engine_sample events to evaluate on", file=sys.stderr)
        return 1
    finite = np.isfinite(dataset.latency_s) & np.isfinite(dataset.energy_j)
    mean, _std = model.predict(dataset.x)
    print(f"model {args.model} on {len(dataset)} samples "
          f"({int(finite.sum())} feasible)")
    if finite.any():
        err_lat = np.abs(mean[finite, 0] - np.log(dataset.latency_s[finite]))
        err_en = np.abs(mean[finite, 1] - np.log(dataset.energy_j[finite]))
        true_rank = np.argsort(np.argsort(dataset.latency_s[finite]))
        pred_rank = np.argsort(np.argsort(mean[finite, 0]))
        if len(true_rank) > 1:
            rho = float(np.corrcoef(true_rank, pred_rank)[0, 1])
        else:
            rho = float("nan")
        print(f"  MAE log-latency   {float(err_lat.mean()):.4f}")
        print(f"  MAE log-energy    {float(err_en.mean()):.4f}")
        print(f"  rank corr (lat)   {rho:.3f}")
    proba = model.feasible_proba(dataset.x)
    accuracy = float(((proba >= 0.5) == dataset.feasible).mean())
    print(f"  feasibility acc   {accuracy:.1%}")
    return 0


# ------------------------------------------------------------------ runs
def _cmd_runs_list(args) -> int:
    from repro.tracking.store import RunStore
    from repro.tracking.tracker import committed_iterations

    store = RunStore(args.runs_dir)
    runs = store.list_runs()
    if not runs:
        print(f"no runs under {args.runs_dir}")
        return 0
    print(
        f"{'run id':<42s}{'status':<11s}{'method':<13s}{'scenario':<9s}"
        f"{'preset':<8s}{'commit':>7s}"
    )
    for run in runs:
        manifest = run.read_manifest()
        workload = manifest.get("workload", "?")
        if isinstance(workload, list):
            workload = "+".join(workload)
        committed = committed_iterations(run)
        print(
            f"{run.run_id:<42s}{manifest.get('status', '?'):<11s}"
            f"{manifest.get('method', '?'):<13s}"
            f"{manifest.get('scenario', '?'):<9s}"
            f"{str(manifest.get('preset', '?')):<8s}"
            f"{'-' if committed is None else committed:>7}"
        )
    return 0


def _cmd_runs_show(args) -> int:
    from repro.tracking.store import RunStore
    from repro.tracking.tracker import replay_iteration_records, verify_run

    run = RunStore(args.runs_dir).get(args.run_id)
    manifest = run.read_manifest()
    print(f"run {run.run_id}")
    for key in sorted(manifest):
        print(f"  {key:<22s} {json.dumps(manifest[key], sort_keys=True)}")
    health = verify_run(run)
    print("journal:")
    for key in ("num_events", "journal_iterations", "truncated_tail",
                "committed_iterations"):
        print(f"  {key:<22s} {health[key]}")
    records = replay_iteration_records(run.journal_path)
    if records:
        print("iterations (replayed from journal):")
        print(f"  {'iter':>4s}{'time_h':>10s}{'uul':>12s}{'sel':>5s}"
              f"{'feas':>5s}{'pareto':>7s}{'best':>12s}")
        for r in records:
            print(
                f"  {r.iteration:>4d}{r.time_s / 3600.0:>10.3f}"
                f"{r.uul:>12.4g}{r.num_selected:>5d}{r.num_feasible:>5d}"
                f"{r.pareto_size:>7d}{r.best_scalar:>12.4g}"
            )
    _print_batch_throughput(run)
    return 0


def _print_batch_throughput(run) -> None:
    """Effective-throughput summary from evaluation batch stamps and the
    last engine snapshot (only printed when the run used batching)."""
    from repro.tracking.journal import read_events

    scan = read_events(run.journal_path)
    evals = [e for e in scan.events if e.get("type") == "evaluation"]
    batched = [e for e in evals if e.get("batch_id") is not None]
    snapshot = None
    for event in scan.events:
        if event.get("type") == "engine_snapshot" and event.get("engine"):
            snapshot = event["engine"]
    engine_batches = int((snapshot or {}).get("batch_queries", 0) or 0)
    if not batched and not engine_batches:
        return
    print("batching:")
    if batched:
        sizes = [int(e.get("batch_size") or 1) for e in batched]
        num_batches = len({int(e["batch_id"]) for e in batched})
        span_s = max(e.get("time_s", 0.0) for e in batched) - min(
            e.get("time_s", 0.0) for e in batched
        )
        print(f"  {'hw_evals_batched':<22s} {len(batched)}/{len(evals)}")
        print(f"  {'hw_batches':<22s} {num_batches}")
        print(f"  {'mean_hw_batch_size':<22s} {sum(sizes) / len(sizes):.1f}")
        if span_s > 0:
            print(
                f"  {'effective_evals_per_h':<22s} "
                f"{len(batched) / (span_s / 3600.0):.1f}"
            )
    if snapshot is not None and engine_batches:
        print(f"  {'engine_batch_queries':<22s} {engine_batches}")
        print(
            f"  {'engine_mean_batch':<22s} "
            f"{float(snapshot.get('mean_batch_size', 0.0)):.1f}"
        )


def _cmd_runs_profile(args) -> int:
    from repro.obs.profile import (
        build_profile,
        render_profile,
        spans_from_journal,
    )
    from repro.tracking.store import RunStore

    run = RunStore(args.runs_dir).get(args.run_id)
    spans = spans_from_journal(run.journal_path)
    if not spans:
        print(
            f"run {run.run_id} has no recorded spans — was it run with "
            "--trace?",
            file=sys.stderr,
        )
        return 1
    profile = build_profile(spans, top_n=args.top)
    print(f"run {run.run_id}: {profile.num_spans} spans, "
          f"{profile.total_wall_s:.2f}s wall, "
          f"{profile.total_sim_s / 3600.0:.2f}h simulated")
    if not profile.total_evals:
        print(
            "no engine-eval spans recorded — evals/s not available "
            "(the run traced phases but performed no PPA evaluations)"
        )
    print(render_profile(profile))
    return 0


def _cmd_runs_trace(args) -> int:
    from repro.obs.chrome import write_chrome_trace
    from repro.obs.profile import spans_from_journal
    from repro.tracking.store import RunStore

    run = RunStore(args.runs_dir).get(args.run_id)
    spans = spans_from_journal(run.journal_path)
    if not spans:
        print(
            f"run {run.run_id} has no recorded spans — was it run with "
            "--trace?",
            file=sys.stderr,
        )
        return 1
    out = args.out if args.out else str(run.dir / "trace.json")
    path = write_chrome_trace(spans, out)
    print(f"wrote {len(spans)} spans to {path} "
          "(load in https://ui.perfetto.dev or chrome://tracing)")
    return 0


def _render_live_event(event: dict) -> str:
    """One human-readable line per journal event (the --follow renderer)."""
    kind = str(event.get("type", "?"))
    seq = event.get("seq", "?")
    prefix = f"[{seq:>5}] {kind:<16s}"
    if kind == "iteration_end":
        r = event.get("record", {})
        return (
            f"{prefix} iter {r.get('iteration', '?'):>3}  "
            f"t={float(r.get('time_s', 0.0)) / 3600.0:7.3f}h  "
            f"uul={r.get('uul', float('nan')):.4g}  "
            f"sel={r.get('num_selected', 0)}  feas={r.get('num_feasible', 0)}  "
            f"pareto={r.get('pareto_size', 0)}  "
            f"best={r.get('best_scalar', float('nan')):.4g}"
        )
    if kind == "msh_round":
        return (
            f"{prefix} iter {event.get('iteration', '?')} "
            f"round {event.get('round_index', '?')}: "
            f"{len(event.get('candidates', []))} candidates → "
            f"{len(event.get('survivors', []))} survivors "
            f"({len(event.get('auc_promoted', []))} AUC-promoted)"
        )
    if kind == "engine_snapshot":
        engine = event.get("engine", {}) or {}
        queries = engine.get("num_queries", 0)
        if "num_cache_hits" not in engine:  # an engine's own block: no cache
            return f"{prefix} queries={queries}"
        hits = engine["num_cache_hits"]
        rate = hits / queries if queries else 0.0
        return (f"{prefix} queries={queries}  cache_hits={hits} "
                f"({rate:.1%})  evictions={engine.get('num_cache_evictions', 0)}")
    if kind == "pareto_update":
        return f"{prefix} pareto grew to {event.get('pareto_size', '?')}"
    if kind == "iteration_state":
        return (f"{prefix} committed {event.get('completed_iterations', '?')}"
                " iterations")
    if kind == "run_end":
        return (
            f"{prefix} {event.get('completed_iterations', '?')} iterations, "
            f"{event.get('total_hw_evaluated', '?')} hw evaluated, "
            f"pareto={event.get('pareto_size', '?')}, "
            f"t={float(event.get('total_time_s', 0.0)) / 3600.0:.2f}h"
        )
    if kind in ("run_start", "resume"):
        keep = {k: v for k, v in event.items()
                if k in ("method", "run_id", "from_iteration", "seed")}
        return f"{prefix} {json.dumps(keep, sort_keys=True)}"
    compact = json.dumps(
        {k: v for k, v in event.items() if k not in ("seq", "type")},
        sort_keys=True,
    )
    return f"{prefix} {compact[:120]}"


def _runs_tail_follow(args) -> int:
    """Live tail: stream a hub's SSE endpoint, or poll the local journal."""
    if args.hub:
        from repro.hub.client import HubClient

        client = HubClient(args.hub)
        try:
            for streamed in client.stream_events(args.run_id):
                event = streamed.event or {}
                if args.type and event.get("type") != args.type:
                    continue
                print(_render_live_event(event), flush=True)
        except KeyboardInterrupt:
            return 0
        finally:
            client.close()
        return 0
    from repro.tracking.journal import follow_journal, read_tail_events
    from repro.tracking.store import RunStore

    run = RunStore(args.runs_dir).get(args.run_id)
    cursor = 0
    if run.journal_path.exists():
        scan = read_tail_events(run.journal_path, args.lines,
                                event_type=args.type)
        for event in scan.events:
            print(_render_live_event(event), flush=True)
        cursor = scan.valid_bytes

    def status():
        return run.read_manifest().get("status")

    try:
        for lines in follow_journal(
            run.journal_path,
            cursor,
            lambda: status() in ("completed", "failed", "cancelled"),
            0.2,
        ):
            for _line, _end, event in lines:
                if not args.type or event.get("type") == args.type:
                    print(_render_live_event(event), flush=True)
    except KeyboardInterrupt:
        return 0
    print(f"(run {status()})")
    return 0


def _cmd_runs_tail(args) -> int:
    if args.follow:
        return _runs_tail_follow(args)
    from repro.tracking.journal import read_tail_events
    from repro.tracking.store import RunStore

    run = RunStore(args.runs_dir).get(args.run_id)
    # bounded read: only the journal's final chunk is parsed, so tailing
    # a multi-day run costs the same as tailing a smoke run
    scan = read_tail_events(run.journal_path, args.lines, event_type=args.type)
    for event in scan.events:
        print(json.dumps(event, sort_keys=True))
    if scan.truncated_tail:
        print("(journal has a truncated tail — run was interrupted mid-write)",
              file=sys.stderr)
    return 0


def _cmd_runs_compare(args) -> int:
    from repro.tracking.store import RunStore
    from repro.tracking.tracker import replay_iteration_records

    store = RunStore(args.runs_dir)
    runs = [store.get(run_id) for run_id in (args.run_a, args.run_b)]
    records = [replay_iteration_records(run.journal_path) for run in runs]
    manifests = [run.read_manifest() for run in runs]
    print(f"{'':<22s}{runs[0].run_id[:28]:>30s}{runs[1].run_id[:28]:>30s}")
    for key in ("method", "scenario", "workload", "preset", "seed", "status"):
        values = [json.dumps(m.get(key), sort_keys=True) for m in manifests]
        print(f"{key:<22s}{values[0]:>30s}{values[1]:>30s}")
    print(f"{'iterations':<22s}{len(records[0]):>30d}{len(records[1]):>30d}")
    for label, getter in (
        ("final pareto size", lambda rs: rs[-1].pareto_size if rs else 0),
        ("final best scalar", lambda rs: rs[-1].best_scalar if rs else float("inf")),
        ("final uul", lambda rs: rs[-1].uul if rs else float("inf")),
        ("total time h", lambda rs: rs[-1].time_s / 3600.0 if rs else 0.0),
    ):
        values = [getter(rs) for rs in records]
        print(f"{label:<22s}{values[0]:>30.6g}{values[1]:>30.6g}")
    shared = min(len(records[0]), len(records[1]))
    if shared:
        print("pareto size by iteration:")
        print(f"  {'iter':>4s}{'a':>8s}{'b':>8s}")
        for i in range(shared):
            print(
                f"  {i:>4d}{records[0][i].pareto_size:>8d}"
                f"{records[1][i].pareto_size:>8d}"
            )
    return 0


def _cmd_runs_resume(args) -> int:
    from repro.experiments.harness import resume_run
    from repro.tracking.store import RunStore

    result = resume_run(
        RunStore(args.runs_dir).get(args.run_id),
        max_iterations=args.max_iterations,
        checkpoint_every=args.checkpoint_every,
    )
    _print_result(
        result, result.method, result.network, result.extras["scenario"]
    )
    print(
        f"resumed from iteration {result.extras['resumed_from_iteration']}, "
        f"now at {result.extras['iterations']}"
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.costmodel.service import PPAServiceServer
    from repro.fleet.server import ReplicaSpec, build_replica_engine

    capacity = args.cache_capacity if args.cache_capacity > 0 else None
    engine = build_replica_engine(
        ReplicaSpec(args.network, engine=args.engine, cache_capacity=capacity)
    )
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    server = PPAServiceServer(
        engine, host=args.host, port=args.port, tracer=tracer
    )
    server.start()
    print(f"PPA service ({args.engine}, workload {args.network}) at {server.url}")
    if args.trace:
        print(
            "request tracing on: spans return to tracing clients via the "
            "X-Repro-Span header"
        )
    print(f"metrics at {server.url}/metrics  (or: python -m repro stats {server.url})")
    print("Ctrl-C (or SIGTERM) drains in-flight requests and stops.")
    server.install_signal_handlers().wait()
    return 0


def _cmd_fleet_serve(args) -> int:
    import signal
    import threading

    from repro.fleet.server import FleetSupervisor, ReplicaSpec

    capacity = args.cache_capacity if args.cache_capacity > 0 else None
    spec = ReplicaSpec(
        network=args.network,
        engine=args.engine,
        cache_capacity=capacity,
        host=args.host,
        ports=tuple(args.ports),
    )
    # handlers go in before the fork: a SIGTERM (systemd, ``docker stop``,
    # ``kill``) that took the default action would kill the supervisor and
    # leave every replica holding its port
    stop_requested = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop_requested.set())
    fleet = FleetSupervisor(spec, replicas=args.replicas).start()
    print(
        f"PPA fleet ({args.engine}, workload {args.network}): "
        f"{args.replicas} replicas"
    )
    for index, url in enumerate(fleet.urls):
        print(f"  replica {index}: {url}")
    print(
        "give RemotePPAEngine every URL; "
        "Ctrl-C or SIGTERM drains in-flight requests and stops the fleet.",
        flush=True,
    )
    stop_requested.wait()
    fleet.stop()
    return 0


def _cmd_fleet_health(args) -> int:
    """One ``/health`` check per replica URL; exit 1 if any is down."""
    failures = 0
    for url in args.urls:
        base = url.rstrip("/")
        try:
            health = json.loads(_scrape(base, "/health", args.timeout))
        except (OSError, HTTPException) as error:
            print(f"{base}  DOWN  {type(error).__name__}: {error}")
            failures += 1
            continue
        status = health.get("status", "?")
        if status != "ok":
            failures += 1
        print(
            f"{base}  {status}  workload={health.get('workload', '?')} "
            f"queries={health.get('queries', '?')}"
        )
    return 1 if failures else 0


#: bar glyphs for terminal sparklines, lowest to highest
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"
#: the rate steps a sparkline shows
_SPARK_WIDTH = 32


def _sparkline(values: list) -> str:
    """Render a value history as a unicode sparkline (scaled to its max)."""
    values = list(values)[-_SPARK_WIDTH:]
    if not values:
        return ""
    top = max(values)
    if top <= 0.0:
        return _SPARK_GLYPHS[0] * len(values)
    return "".join(
        _SPARK_GLYPHS[
            min(int(v / top * (len(_SPARK_GLYPHS) - 1) + 0.5),
                len(_SPARK_GLYPHS) - 1)
        ]
        for v in values
    )


#: frames ``fleet top`` keeps: one more than the sparkline's 32 rate steps
TOP_WINDOW = 33


def counter_increase(points: list) -> float:
    """Reset-aware counter increase over ordered ``(t, value)`` points.

    Sums positive deltas only: a counter that falls (replica restart)
    contributes its post-reset value as new growth instead of a negative
    delta, as Prometheus ``increase()`` does.
    """
    total = 0.0
    for (_t0, v0), (_t1, v1) in zip(points, points[1:]):
        delta = v1 - v0
        total += delta if delta >= 0.0 else v1
    return total


def _rate_history(points: list) -> list:
    """The last sparkline's worth of per-step counter rates from
    ``(t, value)`` points, under :func:`counter_increase`'s reset rule."""
    return [
        counter_increase(step) / (step[1][0] - step[0][0])
        for step in zip(points, points[1:])
        if step[1][0] > step[0][0]
    ][-_SPARK_WIDTH:]


def _hit_rate(series: dict) -> str:
    """Cache hits over queries of one sample's counters, ``-`` before any."""
    queries = series.get("engine_queries_total", 0.0)
    if not queries:
        return "-"
    return f"{series.get('engine_cache_hits_total', 0.0) / queries:.1%}"


def _split_fleet_text(text: str) -> tuple:
    """A merged fleet exposition as ``(fleet, replicas)``.

    ``fleet`` holds the ``fleet:*`` rollups under their base names;
    ``replicas`` maps each replica, in ``up`` order, to its own series.
    A series is summed over its labels other than ``replica``.
    """
    from repro.utils.prom import parse_prometheus_text

    families = parse_prometheus_text(text)
    up = families.get("up", {"samples": []})["samples"]
    fleet: dict = {}
    replicas = {labels["replica"]: {} for _name, labels, _value in up}
    for data in families.values():
        for name, labels, value in data["samples"]:
            if name.startswith("fleet:"):
                series, name = fleet, name[len("fleet:"):]
            else:
                series = replicas.setdefault(labels["replica"], {})
            series[name] = series.get(name, 0.0) + value
    return fleet, replicas


def _query_points(history, replica: Optional[str] = None) -> list:
    """``(t, engine_queries_total)`` over the window: the fleet rollup, or
    one replica's; frames without the counter are skipped."""
    points = []
    for t, fleet, replicas in history:
        series = fleet if replica is None else replicas.get(replica, {})
        if "engine_queries_total" in series:
            points.append((t, series["engine_queries_total"]))
    return points


def _render_fleet_top(history, scrape_s: dict) -> str:
    """One frame of the ``repro fleet top`` dashboard from its window of
    ``(t, fleet, replicas)`` scrapes; ``scrape_s`` is the latest one's
    scrape time per replica."""
    _t, fleet, replicas = history[-1]
    up = sum(1 for series in replicas.values() if series.get("up") == 1.0)
    fleet_rates = _rate_history(_query_points(history))
    lines = [
        f"fleet: {up}/{len(replicas)} replicas up   "
        f"evals/s {fleet_rates[-1] if fleet_rates else 0.0:7.1f}  "
        f"cache hit rate {_hit_rate(fleet):>6}  "
        f"{_sparkline(fleet_rates)}",
        "",
        f"{'replica':<24} {'state':<6} {'evals/s':>8}  "
        f"{'history':<32} {'hit rate':>8} {'scrape':>8} {'errors':>7}",
    ]
    for name, series in replicas.items():
        target = f"replica:{name}"
        if series.get("up") != 1.0:
            lines.append(f"{target:<24} {'DOWN':<6}")
            continue
        rates = _rate_history(_query_points(history, name))
        lines.append(
            f"{target:<24} {'up':<6} "
            f"{rates[-1] if rates else 0.0:>8.1f}  "
            f"{_sparkline(rates):<32} "
            f"{_hit_rate(series):>8} "
            f"{scrape_s[name] * 1e3:>6.1f}ms "
            f"{series.get('service_errors_total', 0.0):>7g}"
        )
    return "\n".join(lines)


def _cmd_fleet_top(args) -> int:
    """Live fleet dashboard over an in-memory window of fleet scrapes."""
    import collections
    import time as _time

    from repro.errors import TrackingError

    if args.hub:
        from repro.hub.client import HubClient

        source = HubClient(args.hub, timeout_s=args.timeout)

        def poll() -> tuple:
            # the hub scrapes every replica in parallel behind one GET, so
            # its round trip is each replica's scrape time
            started = _time.perf_counter()
            text = source.fleet_metrics()
            elapsed = _time.perf_counter() - started
            fleet, replicas = _split_fleet_text(text)
            return fleet, replicas, dict.fromkeys(replicas, elapsed)
    else:
        if not args.urls:
            print("error: fleet top needs replica URLs or --hub",
                  file=sys.stderr)
            return 2
        from repro.hub.aggregate import FleetAggregator

        source = FleetAggregator(args.urls, timeout_s=args.timeout)

        def poll() -> tuple:
            scrapes = source.scrape()
            fleet, replicas = _split_fleet_text(source.merge(scrapes))
            return fleet, replicas, {s.name: s.elapsed_s for s in scrapes}

    history: collections.deque = collections.deque(maxlen=TOP_WINDOW)
    frames = 0
    try:
        while True:
            fleet, replicas, scrape_s = poll()
            history.append((_time.monotonic(), fleet, replicas))
            if not args.no_clear:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(_render_fleet_top(history, scrape_s), flush=True)
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except TrackingError as error:  # the hub refused, e.g. no replicas
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        source.close()


def _cmd_hub_serve(args) -> int:
    from repro.hub.server import HubServer

    server = HubServer(
        args.runs_dir,
        replica_urls=args.replicas or None,
        host=args.host,
        port=args.port,
    )
    server.start()
    stopped = server.install_signal_handlers()
    print(f"repro hub on {server.url} (runs dir {args.runs_dir})")
    if args.replicas:
        print(f"aggregating {len(args.replicas)} replicas at /fleet/metrics")
    print("endpoints: /runs /runs/<id>/events (SSE) /metrics /health; "
          "Ctrl-C drains and stops.")
    stopped.wait()
    return 0


def _cmd_hub_submit(args) -> int:
    from repro.hub.client import HubClient

    spec = {
        "method": args.method,
        "scenario": args.scenario,
        "workload": args.network,
        "preset": args.preset,
        "seed": args.seed,
        "checkpoint_every": args.checkpoint_every,
    }
    if args.time_budget is not None:
        spec["time_budget_s"] = args.time_budget * 3600.0
    with HubClient(args.hub) as client:
        run_id = client.submit(spec)
    print(run_id)
    return 0


def _cmd_hub_runs(args) -> int:
    from repro.hub.client import HubClient

    with HubClient(args.hub) as client:
        reply = client.list_runs()
    runs = reply.get("runs", [])
    if not runs:
        print("(no runs)")
        return 0
    print(f"{'run_id':<44} {'status':<10} {'method':<10} "
          f"{'workload':<18} preset")
    for row in runs:
        print(
            f"{row.get('run_id', '?'):<44} {row.get('status', '?'):<10} "
            f"{row.get('method', '?'):<10} {row.get('workload', '?'):<18} "
            f"{row.get('preset', '?')}"
        )
    state = reply.get("scheduler", {})
    if state:
        print(f"scheduler: running={state.get('running')} "
              f"queued={len(state.get('queued', []))}")
    return 0


def _cmd_hub_cancel(args) -> int:
    from repro.hub.client import HubClient

    with HubClient(args.hub) as client:
        reply = client.cancel(args.run_id)
    print(f"{args.run_id}: {reply.get('status', '?')}")
    return 0


def _cmd_hub_resume(args) -> int:
    from repro.hub.client import HubClient

    with HubClient(args.hub) as client:
        run_id = client.resume(args.run_id)
    print(f"{run_id}: queued for resume")
    return 0


def _scrape(url: str, path: str, timeout_s: float) -> bytes:
    """One ``GET`` of a service's ``/health`` or ``/metrics`` over the
    pooled client; non-200 replies and transport faults raise."""
    from repro.fleet.pool import ConnectionPool

    pool = ConnectionPool(url, timeout_s=timeout_s)
    try:
        return pool.fetch(path)
    finally:
        pool.close()


def _cmd_stats(args) -> int:
    url = args.url.rstrip("/")
    try:
        if args.prom:
            text = _scrape(url, "/metrics?format=prom", args.timeout)
            print(text.decode("utf-8"), end="")
            return 0
        payload = json.loads(_scrape(url, "/metrics", args.timeout))
    except (OSError, HTTPException, json.JSONDecodeError) as error:
        print(f"error: cannot reach PPA service at {url}: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    engine = payload.get("engine", {})
    print(f"PPA service at {url}")
    print(f"  engine           {engine.get('engine', '?')}")
    print(f"  workload         {engine.get('workload', '?')}")
    print(f"  queries          {engine.get('num_queries', 0)}")
    if "num_cache_hits" in engine:  # only a replica's block has a cache
        print(f"  cache hits       {engine['num_cache_hits']}")
        print(f"  cache hit rate   {engine.get('cache_hit_rate', 0.0):.1%}")
        print(f"  cache evictions  {engine.get('num_cache_evictions', 0)}")
        capacity = engine.get("cache_capacity")
        print(
            f"  cache size       {engine.get('cache_size', 0)}"
            f" / {capacity if capacity is not None else 'unbounded'}"
        )
    if engine.get("batch_queries"):
        print(
            f"  batch queries    {engine['batch_queries']}"
            f" (mean batch size {engine.get('mean_batch_size', 0.0):.1f})"
        )
    metrics = payload.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        print("counters:")
        for name, value in counters.items():
            print(f"  {name:<40s} {value:g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        print("histograms:")
        for name, hist in histograms.items():
            if not hist["count"]:
                continue
            if "seconds" in name:
                detail = (
                    f"mean={hist['mean'] * 1e3:.2f} ms  "
                    f"max={hist['max'] * 1e3:.2f} ms"
                )
            else:  # dimensionless (e.g. batch sizes)
                detail = f"mean={hist['mean']:.1f}  max={hist['max']:g}"
            print(f"  {name:<40s} count={hist['count']}  {detail}")
    return 0


def _cmd_reproduce(args) -> int:
    import pathlib

    from repro.experiments.paper_runner import run_everything

    summary = run_everything(
        preset=args.preset,
        seed=args.seed,
        results_dir=pathlib.Path(args.results_dir),
        only=args.only,
        progress=print,
    )
    print(f"done: {len(summary.children)} experiments at preset {args.preset}")
    return 0


def _cmd_report(args) -> int:
    import pathlib

    from repro.experiments.reporting import generate_report

    markdown = generate_report(pathlib.Path(args.results_dir))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(markdown)
        print(f"wrote {args.out}")
    else:
        print(markdown)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every sub-command."""
    parser = argparse.ArgumentParser(
        prog="repro", description="UNICO reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("networks", help="list registered workloads").set_defaults(
        fn=_cmd_networks
    )

    run_parser = sub.add_parser("run", help="run one co-search cell")
    run_parser.add_argument("method", choices=METHODS)
    run_parser.add_argument(
        "network",
        help="a registered network, or several joined by '+' for one "
             "accelerator that runs a mapping job per network (Fig. 6a)",
    )
    run_parser.add_argument("--scenario", default="edge", choices=SCENARIOS)
    run_parser.add_argument("--preset", default="smoke")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--track", action="store_true",
        help="persist a run directory (manifest + journal)",
    )
    run_parser.add_argument("--runs-dir", default="runs",
                            help="root of tracked run directories")
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="iteration_state period in iterations (0 = not resumable)",
    )
    run_parser.add_argument(
        "--batch-size", type=int, default=1,
        help="upper bound on the candidates of one PPA-engine call of the "
             "inner mapping search; same search and same Cost(h) at every "
             "value, only a tool whose proposals ignore results (random) "
             "drafts the steps that follow",
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="record hierarchical spans (requires --track); writes "
             "runs/<id>/trace.json and journals span events for "
             "`runs profile`",
    )
    run_parser.add_argument(
        "--tool", default=None,
        help="override the scenario's SW mapping tool (e.g. 'oneloop' for "
             "the learned gradient-descent search)",
    )
    run_parser.add_argument(
        "--record-samples", action="store_true",
        help="journal every computed candidate as an engine_sample event "
             "(requires --track); the corpus for `repro learned train`",
    )
    run_parser.add_argument(
        "--screen", default=None, metavar="MODEL",
        help="screen evaluation batches with this saved learned model "
             "(see `repro learned train`); only predicted-best candidates "
             "reach the analytical engine",
    )
    run_parser.add_argument(
        "--screen-topk", type=int, default=None,
        help="candidates forwarded per screened batch (default: 25%% of "
             "the batch)",
    )
    run_parser.set_defaults(fn=_cmd_run)

    learned_parser = sub.add_parser(
        "learned", help="train / evaluate a journal-distilled cost model"
    )
    learned_sub = learned_parser.add_subparsers(
        dest="learned_command", required=True
    )

    learned_train = learned_sub.add_parser(
        "train", help="distill journalled engine_sample events into a model"
    )
    learned_train.add_argument("--runs-dir", default="runs",
                               help="run store to harvest samples from")
    learned_train.add_argument("--out", default="learned_model.json",
                               help="where to save the trained model")
    learned_train.add_argument("--seed", type=int, default=0)
    learned_train.add_argument("--hidden", type=int, default=32,
                               help="MLP hidden width")
    learned_train.add_argument("--ensemble", type=int, default=4,
                               help="MLP ensemble members (plus one ridge)")
    learned_train.add_argument("--epochs", type=int, default=300)
    learned_train.set_defaults(fn=_cmd_learned_train)

    learned_eval = learned_sub.add_parser(
        "eval", help="score a saved model against journalled samples"
    )
    learned_eval.add_argument("model", help="saved model JSON path")
    learned_eval.add_argument("--runs-dir", default="runs")
    learned_eval.set_defaults(fn=_cmd_learned_eval)

    runs_parser = sub.add_parser(
        "runs", help="inspect / resume tracked runs (see `run --track`)"
    )
    runs_sub = runs_parser.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser("list", help="list tracked runs")
    runs_list.add_argument("--runs-dir", default="runs")
    runs_list.set_defaults(fn=_cmd_runs_list)

    runs_show = runs_sub.add_parser(
        "show", help="manifest, journal health and iteration table of a run"
    )
    runs_show.add_argument("run_id")
    runs_show.add_argument("--runs-dir", default="runs")
    runs_show.set_defaults(fn=_cmd_runs_show)

    runs_profile = runs_sub.add_parser(
        "profile", help="per-phase wall/sim time breakdown of a traced run"
    )
    runs_profile.add_argument("run_id")
    runs_profile.add_argument("--runs-dir", default="runs")
    runs_profile.add_argument(
        "--top", type=int, default=5, help="slowest individual spans to list"
    )
    runs_profile.set_defaults(fn=_cmd_runs_profile)

    runs_trace = runs_sub.add_parser(
        "trace", help="export a traced run's spans as Chrome trace JSON"
    )
    runs_trace.add_argument("run_id")
    runs_trace.add_argument("--runs-dir", default="runs")
    runs_trace.add_argument(
        "--out", default=None,
        help="output path (default: the run's trace.json)",
    )
    runs_trace.set_defaults(fn=_cmd_runs_trace)

    runs_tail = runs_sub.add_parser("tail", help="print a run's last events")
    runs_tail.add_argument("run_id")
    runs_tail.add_argument("-n", "--lines", type=int, default=10)
    runs_tail.add_argument("--type", default=None,
                           help="only events of this type")
    runs_tail.add_argument("--runs-dir", default="runs")
    runs_tail.add_argument(
        "-f", "--follow", action="store_true",
        help="render events live as the run produces them",
    )
    runs_tail.add_argument(
        "--hub", default=None, metavar="URL",
        help="with --follow: stream over the hub's SSE endpoint "
             "instead of polling the local journal",
    )
    runs_tail.set_defaults(fn=_cmd_runs_tail)

    runs_compare = runs_sub.add_parser(
        "compare", help="side-by-side trajectory comparison of two runs"
    )
    runs_compare.add_argument("run_a")
    runs_compare.add_argument("run_b")
    runs_compare.add_argument("--runs-dir", default="runs")
    runs_compare.set_defaults(fn=_cmd_runs_compare)

    runs_resume = runs_sub.add_parser(
        "resume", help="continue an interrupted run from its journal"
    )
    runs_resume.add_argument("run_id")
    runs_resume.add_argument("--runs-dir", default="runs")
    runs_resume.add_argument(
        "--max-iterations", type=int, default=None,
        help="override the manifest's iteration budget",
    )
    runs_resume.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="iteration_state period (default: as the run recorded)",
    )
    runs_resume.set_defaults(fn=_cmd_runs_resume)

    reproduce_parser = sub.add_parser(
        "reproduce", help="run every table/figure at a preset"
    )
    reproduce_parser.add_argument("--preset", default="smoke")
    reproduce_parser.add_argument("--seed", type=int, default=0)
    reproduce_parser.add_argument(
        "--results-dir", default="benchmarks/results", help="where records go"
    )
    reproduce_parser.add_argument(
        "--only", nargs="+", default=None, help="subset of experiment names"
    )
    reproduce_parser.set_defaults(fn=_cmd_reproduce)

    report_parser = sub.add_parser(
        "report", help="render saved benchmark records as markdown"
    )
    report_parser.add_argument(
        "--results-dir", default="benchmarks/results", help="record directory"
    )
    report_parser.add_argument("--out", default=None, help="write markdown here")
    report_parser.set_defaults(fn=_cmd_report)

    serve_parser = sub.add_parser("serve", help="serve a PPA engine over HTTP")
    serve_parser.add_argument("network")
    serve_parser.add_argument("--engine", default="maestro",
                              choices=ENGINES)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0)
    serve_parser.add_argument(
        "--cache-capacity", type=int, default=100_000,
        help="LRU bound on the service's result cache (0 = unbounded)",
    )
    serve_parser.add_argument(
        "--trace", action="store_true",
        help="open a span per request and return it to tracing clients",
    )
    serve_parser.set_defaults(fn=_cmd_serve)

    fleet_parser = sub.add_parser(
        "fleet", help="run or inspect a fleet of sharded PPA-service replicas"
    )
    fleet_sub = fleet_parser.add_subparsers(dest="fleet_command", required=True)
    fleet_serve = fleet_sub.add_parser(
        "serve", help="start N replica processes under one supervisor"
    )
    fleet_serve.add_argument("network")
    fleet_serve.add_argument("--replicas", type=int, default=2)
    fleet_serve.add_argument("--engine", default="maestro",
                             choices=ENGINES)
    fleet_serve.add_argument("--host", default="127.0.0.1")
    fleet_serve.add_argument(
        "--ports", type=int, nargs="*", default=[],
        help="fixed ports per replica (default: OS-assigned)",
    )
    fleet_serve.add_argument(
        "--cache-capacity", type=int, default=100_000,
        help="per-replica LRU bound on the result cache (0 = unbounded)",
    )
    fleet_serve.set_defaults(fn=_cmd_fleet_serve)
    fleet_health = fleet_sub.add_parser(
        "status", help="health-check running replica URLs"
    )
    fleet_health.add_argument("urls", nargs="+")
    fleet_health.add_argument("--timeout", type=float, default=5.0)
    fleet_health.set_defaults(fn=_cmd_fleet_health)
    fleet_top = fleet_sub.add_parser(
        "top",
        help="live fleet dashboard: evals/s history, cache hit rate "
             "and scrape latency",
    )
    fleet_top.add_argument("urls", nargs="*")
    fleet_top.add_argument(
        "--hub", default=None, metavar="URL",
        help="poll a hub's /fleet/metrics instead of scraping replicas "
             "(the hub needs --replicas)",
    )
    fleet_top.add_argument("--timeout", type=float, default=5.0)
    fleet_top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period in seconds",
    )
    fleet_top.add_argument(
        "--iterations", type=int, default=0,
        help="render this many frames then exit (0 = until Ctrl-C)",
    )
    fleet_top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (for logs)",
    )
    fleet_top.set_defaults(fn=_cmd_fleet_top)

    hub_parser = sub.add_parser(
        "hub", help="run or talk to the control-plane hub"
    )
    hub_sub = hub_parser.add_subparsers(dest="hub_command", required=True)
    hub_serve = hub_sub.add_parser(
        "serve",
        help="serve run lifecycle, SSE journal streams and fleet metrics",
    )
    hub_serve.add_argument("--runs-dir", default="runs")
    hub_serve.add_argument("--host", default="127.0.0.1")
    hub_serve.add_argument("--port", type=int, default=0)
    hub_serve.add_argument(
        "--replicas", nargs="*", default=[], metavar="URL",
        help="PPA-service replica URLs to aggregate at /fleet/metrics",
    )
    hub_serve.set_defaults(fn=_cmd_hub_serve)
    hub_submit = hub_sub.add_parser(
        "submit", help="submit a run spec to a hub's scheduler"
    )
    hub_submit.add_argument("hub", help="hub base URL, e.g. http://host:port")
    hub_submit.add_argument("method", choices=METHODS)
    hub_submit.add_argument("network")
    hub_submit.add_argument("--scenario", default="edge", choices=SCENARIOS)
    hub_submit.add_argument("--preset", default="smoke")
    hub_submit.add_argument("--seed", type=int, default=0)
    hub_submit.add_argument(
        "--time-budget", type=float, default=None,
        help="wall-clock budget in hours",
    )
    hub_submit.add_argument("--checkpoint-every", type=int, default=1)
    hub_submit.set_defaults(fn=_cmd_hub_submit)
    hub_runs = hub_sub.add_parser("runs", help="list a hub's tracked runs")
    hub_runs.add_argument("hub")
    hub_runs.set_defaults(fn=_cmd_hub_runs)
    hub_cancel = hub_sub.add_parser(
        "cancel", help="cancel a queued or running hub run"
    )
    hub_cancel.add_argument("hub")
    hub_cancel.add_argument("run_id")
    hub_cancel.set_defaults(fn=_cmd_hub_cancel)
    hub_resume = hub_sub.add_parser(
        "resume", help="queue an interrupted run for continuation"
    )
    hub_resume.add_argument("hub")
    hub_resume.add_argument("run_id")
    hub_resume.set_defaults(fn=_cmd_hub_resume)

    stats_parser = sub.add_parser(
        "stats", help="summarize a running PPA service's /metrics"
    )
    stats_parser.add_argument("url", help="service base URL, e.g. http://host:port")
    stats_parser.add_argument("--timeout", type=float, default=5.0)
    stats_parser.add_argument(
        "--json", action="store_true", help="print the raw /metrics JSON"
    )
    stats_parser.add_argument(
        "--prom", action="store_true",
        help="print the Prometheus text exposition (/metrics?format=prom)",
    )
    stats_parser.set_defaults(fn=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped to head); suppress the shutdown flush
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
