"""Experiment harness: method registry, runners and HV-curve utilities.

One entry point, :func:`run_method`, builds the engine + co-optimizer for a
(method, scenario, workload, preset) cell and returns the uniform
:class:`~repro.core.base.CoSearchResult`.  Methods:

=====================  =====================================================
``unico``              full UNICO (MSH + HighFidelityUpdate + robustness R)
``unico_no_r``         UNICO without the sensitivity objective (Fig. 8 step 1)
``msh_champion``       MSH + ChampionUpdate ablation (Fig. 10)
``sh_champion``        SH + ChampionUpdate ablation (Fig. 10)
``hasco``              HASCO-like single-point BO baseline
``nsgaii``             NSGA-II co-design baseline
``mobohb``             multi-objective BOHB baseline
``random``             uniform-random floor
=====================  =====================================================

Scenarios: ``edge`` / ``cloud`` (open-source spatial platform, analytical
engine, power caps 2 W / 20 W) and ``ascend`` (cycle-accurate engine,
area cap 200 mm^2, depth-first fusion mapping tool, 4 slave workers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.camodel import AscendCAEngine
from repro.core import (
    CoSearchResult,
    HascoBaseline,
    HascoConfig,
    MobohbBaseline,
    MobohbConfig,
    NSGA2Codesign,
    NSGA2CodesignConfig,
    RandomCodesign,
    RandomCodesignConfig,
    Unico,
    UnicoConfig,
)
from repro.costmodel import MaestroEngine
from repro.errors import ConfigurationError
from repro.experiments.presets import Preset, get_preset
from repro.hw import (
    ASCEND_AREA_CAP_MM2,
    ascend_design_space,
    design_space_for,
    power_cap_for,
)
from repro.methods import METHODS
from repro.optim.hypervolume import hypervolume
from repro.optim.pareto import pareto_front
from repro.workloads import Network, get_network, merge_networks

_UNICO_VARIANTS: Dict[str, Dict[str, object]] = {
    "unico": {
        "use_msh": True,
        "surrogate_update": "high_fidelity",
        "include_robustness": True,
    },
    "unico_no_r": {
        "use_msh": True,
        "surrogate_update": "high_fidelity",
        "include_robustness": False,
    },
    "msh_champion": {
        "use_msh": True,
        "surrogate_update": "champion",
        "include_robustness": False,
    },
    "sh_champion": {
        "use_msh": False,
        "surrogate_update": "champion",
        "include_robustness": False,
    },
}


def resolve_workload(workload: Union[str, Network, Sequence[str]]) -> Network:
    """Accept a network name, a Network, or a list of names (merged)."""
    if isinstance(workload, Network):
        return workload
    if isinstance(workload, str):
        return get_network(workload)
    names = list(workload)
    if len(names) == 1:
        return get_network(names[0])
    return merge_networks("+".join(names), [get_network(n) for n in names])


def make_platform(scenario: str, network: Network):
    """Return (design space, engine, caps dict, tool, workers) for a scenario."""
    if scenario in ("edge", "cloud"):
        space = design_space_for(scenario)
        engine = MaestroEngine(network)
        caps = {"power_cap_w": power_cap_for(scenario), "area_cap_mm2": None}
        # UNICO runs its successive-halving jobs via multiprocessing on the
        # server's cores (Section 3.5); the sequential-BO baselines cannot.
        return space, engine, caps, "flextensor", 8
    if scenario == "ascend":
        space = ascend_design_space()
        engine = AscendCAEngine(network, noise_fraction=0.08)
        caps = {"power_cap_w": None, "area_cap_mm2": ASCEND_AREA_CAP_MM2}
        return space, engine, caps, "fusion", 4
    raise ConfigurationError(
        f"unknown scenario {scenario!r}; use 'edge', 'cloud' or 'ascend'"
    )


def build_optimizer(
    method: str,
    scenario: str,
    workload: Union[str, Network, Sequence[str]],
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
    time_budget_s: Optional[float] = None,
    eval_batch_size: int = 1,
    tool: Optional[str] = None,
):
    """Construct (without running) the co-optimizer for one cell.

    This is the factory :func:`run_method` drives and the piece
    ``repro runs resume`` uses to rebuild an optimizer from a tracked
    run's manifest before restoring its checkpoint.

    ``eval_batch_size`` is the speculative-batch width of the inner
    mapping search (one PPA-engine batch call per that many candidates);
    1 keeps the classic scalar loop and reproduces its trajectories
    exactly.

    ``tool`` overrides the scenario's default SW mapping tool (e.g.
    ``"oneloop"`` for the learned gradient-descent search); ``None``
    keeps the platform default.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; use one of {METHODS}")
    preset = get_preset(preset) if isinstance(preset, str) else preset
    network = resolve_workload(workload)
    space, engine, caps, default_tool, workers = make_platform(scenario, network)
    tool = default_tool if tool is None else tool

    if method in _UNICO_VARIANTS:
        variant = _UNICO_VARIANTS[method]
        if scenario == "ascend":
            batch, iters, budget = (
                preset.ascend_batch,
                preset.ascend_iterations,
                preset.ascend_budget,
            )
        else:
            batch, iters, budget = (
                preset.unico_batch,
                preset.unico_iterations,
                preset.unico_budget,
            )
        initial_configs = ()
        if scenario == "ascend":
            # industrial tuning warm-starts from the expert default (§4.6)
            from repro.hw import default_ascend_config

            initial_configs = (default_ascend_config(),)
        config = UnicoConfig(
            batch_size=batch,
            max_iterations=iters,
            max_budget=budget,
            workers=workers,
            time_budget_s=time_budget_s,
            initial_configs=initial_configs,
            eval_batch_size=eval_batch_size,
            **variant,
        )
        optimizer = Unico(
            space, network, engine, config, tool=tool, seed=seed, **caps
        )
    elif method == "hasco":
        config = HascoConfig(
            max_candidates=preset.hasco_candidates,
            full_budget=preset.hasco_budget,
            time_budget_s=time_budget_s,
        )
        optimizer = HascoBaseline(
            space, network, engine, config, tool=tool, seed=seed,
            eval_batch_size=eval_batch_size, **caps
        )
    elif method == "nsgaii":
        config = NSGA2CodesignConfig(
            population_size=preset.nsga_population,
            max_generations=preset.nsga_generations,
            eval_budget=preset.nsga_budget,
            time_budget_s=time_budget_s,
        )
        optimizer = NSGA2Codesign(
            space, network, engine, config, tool=tool, seed=seed,
            eval_batch_size=eval_batch_size, **caps
        )
    elif method == "mobohb":
        config = MobohbConfig(
            max_budget=preset.mobohb_budget,
            max_hyperband_loops=preset.mobohb_loops,
            time_budget_s=time_budget_s,
        )
        optimizer = MobohbBaseline(
            space, network, engine, config, tool=tool, seed=seed,
            eval_batch_size=eval_batch_size, **caps
        )
    else:  # random
        config = RandomCodesignConfig(
            max_candidates=preset.hasco_candidates,
            full_budget=preset.hasco_budget,
            time_budget_s=time_budget_s,
        )
        optimizer = RandomCodesign(
            space, network, engine, config, tool=tool, seed=seed,
            eval_batch_size=eval_batch_size, **caps
        )
    return optimizer


def _resolve_screen(screen, screen_topk: Optional[int]):
    """Normalize the ``screen`` argument to (model, provenance dict).

    ``screen`` may be ``None`` (no screening), a path to a saved
    :class:`~repro.learned.LearnedCostModel`, or an already-loaded model.
    The provenance dict is what lands in the run manifest and the
    ``learned_model`` journal event: enough to re-load the model on
    resume and to audit which model screened a run.
    """
    if screen is None:
        return None, None
    from repro.learned import FEATURE_VERSION, LearnedCostModel

    if isinstance(screen, LearnedCostModel):
        model, path = screen, None
    else:
        model, path = LearnedCostModel.load(screen), str(screen)
    info = {
        "model_path": path,
        "model_sha256": _file_sha256(path) if path else None,
        "feature_version": FEATURE_VERSION,
        "topk": screen_topk,
        "meta": dict(model.meta),
    }
    return model, info


def _file_sha256(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _workload_name(workload: Union[str, Network, Sequence[str]]):
    """Manifest-friendly workload identity (name or list of names)."""
    if isinstance(workload, Network):
        return workload.name
    if isinstance(workload, str):
        return workload
    return [str(name) for name in workload]


def run_method(
    method: str,
    scenario: str,
    workload: Union[str, Network, Sequence[str]],
    preset: Union[str, Preset] = "smoke",
    seed: int = 0,
    time_budget_s: Optional[float] = None,
    tracker=None,
    run_store=None,
    checkpoint_every: int = 1,
    eval_batch_size: int = 1,
    trace: bool = False,
    tool: Optional[str] = None,
    record_samples: bool = False,
    screen=None,
    screen_topk: Optional[int] = None,
) -> CoSearchResult:
    """Run one (method, scenario, workload) cell and return its result.

    Tracking: pass an explicit :class:`~repro.tracking.Tracker`, or a
    ``run_store`` (a :class:`~repro.tracking.RunStore` or a directory
    path) to allocate a ``runs/<run-id>/`` directory with a manifest,
    journal and periodic checkpoints; the run id lands in
    ``result.extras["run_id"]``.  Passing both is ambiguous and rejected.
    Methods whose ``optimize()`` does not drive the tracker lifecycle
    itself (the non-UNICO baselines) get ``run_start`` / ``run_end``
    emitted by the harness, so their manifests still reach a terminal
    status.

    Tracing: ``trace=True`` (requires ``run_store``) installs a
    :class:`~repro.obs.trace.Tracer` whose spans land both in the run's
    journal (``span`` events) and in ``runs/<run-id>/trace.json``
    (Chrome trace format); the trace id lands in
    ``result.extras["trace_id"]``.  Tracing is observational — results
    are bit-identical to an untraced run with the same seeds.

    Learned subsystem (:mod:`repro.learned`):

    * ``record_samples=True`` (requires ``run_store``) installs a
      :class:`~repro.tracking.JournalSampleSink` on the engine so every
      computed candidate lands in the journal as an ``engine_sample``
      event — the training corpus for ``repro learned train``.
    * ``screen`` (a model path or a loaded
      :class:`~repro.learned.LearnedCostModel`) wraps the engine in a
      :class:`~repro.learned.ScreeningPPAEngine` that forwards only the
      model's predicted-best ``screen_topk`` candidates per batch to the
      analytical engine.  Every surfaced number stays exact analytical
      PPA; with ``screen=None`` the run is bit-identical to today.
    * ``tool`` overrides the scenario's mapping tool (e.g. ``oneloop``).
    """
    if tracker is not None and run_store is not None:
        raise ConfigurationError(
            "pass either tracker= or run_store=, not both; run_store builds "
            "its own JournalTracker and would silently ignore the tracker"
        )
    if trace and run_store is None:
        raise ConfigurationError(
            "trace=True requires run_store=: spans are journaled and the "
            "Chrome trace is written into the run directory"
        )
    optimizer = build_optimizer(
        method,
        scenario,
        workload,
        preset,
        seed=seed,
        time_budget_s=time_budget_s,
        eval_batch_size=eval_batch_size,
        tool=tool,
    )
    screen_model, screen_info = _resolve_screen(screen, screen_topk)
    run = None
    if tracker is None and run_store is not None:
        import dataclasses

        from repro.tracking import JournalTracker, RunStore
        from repro.utils.records import to_jsonable

        store = run_store if isinstance(run_store, RunStore) else RunStore(run_store)
        preset_obj = get_preset(preset) if isinstance(preset, str) else preset
        run = store.create_run(
            {
                "method": method,
                "scenario": scenario,
                "workload": _workload_name(workload),
                "preset": preset_obj.name,
                # full parameters so resume never depends on the name being
                # registered (custom Preset objects are legal inputs)
                "preset_params": to_jsonable(dataclasses.asdict(preset_obj)),
                "seed": seed,
                "time_budget_s": time_budget_s,
                "eval_batch_size": eval_batch_size,
                "tool": tool,
                "record_samples": bool(record_samples),
                "screen": screen_info,
                "space": optimizer.space.name,
                "engine": type(optimizer.engine).__name__,
                "config": to_jsonable(dataclasses.asdict(optimizer.config)),
            }
        )
        tracker = JournalTracker(run, checkpoint_every=checkpoint_every)
    if screen_model is not None:
        from repro.learned import ScreeningPPAEngine

        optimizer.engine = ScreeningPPAEngine(
            optimizer.engine,
            model=screen_model,
            topk=screen_topk,
        )
    if tracker is not None:
        optimizer.tracker = tracker
    journal = getattr(tracker, "journal", None) if tracker is not None else None
    if record_samples:
        if journal is None:
            raise ConfigurationError(
                "record_samples=True needs a journal: pass run_store= (or a "
                "JournalTracker) so engine_sample events have somewhere to go"
            )
        from repro.tracking import JournalSampleSink

        optimizer.engine.sample_sink = JournalSampleSink(journal)
    if screen_info is not None and journal is not None:
        # model provenance in the journal: resume and post-hoc analysis can
        # see exactly which model screened this run
        journal.append("learned_model", screen_info)
    tracer = None
    if trace and run is not None:
        from repro.obs.chrome import ChromeTraceSink
        from repro.obs.trace import JournalSpanSink, Tracer

        tracer = Tracer(
            clock=optimizer.clock,
            sinks=[
                JournalSpanSink(tracker.journal),
                ChromeTraceSink(run.dir / "trace.json"),
            ],
        )
        optimizer.set_tracer(tracer)
    harness_lifecycle = (
        tracker is not None and not optimizer.emits_lifecycle_events
    )
    try:
        if harness_lifecycle:
            tracker.on_run_start(optimizer)
        result = optimizer.optimize()
    except BaseException as error:
        if tracker is not None:
            tracker.on_run_failed(optimizer, error)
        raise
    finally:
        if tracer is not None:
            # journal spans were appended live; this writes trace.json
            tracer.flush()
    if harness_lifecycle:
        tracker.on_run_end(optimizer, result)
    result.extras["method_requested"] = method
    result.extras["scenario"] = scenario
    if screen_info is not None:
        result.extras["screen_model"] = screen_info
        # the baselines don't thread engine extras through optimize();
        # surface the wrapper's counters for every method here
        if "screening" not in result.extras:
            result.extras["screening"] = optimizer.engine.screen_stats()
    if run is not None:
        result.extras["run_id"] = run.run_id
    if tracer is not None:
        result.extras["trace_id"] = tracer.trace_id
        result.extras["trace_path"] = str(run.dir / "trace.json")
    result.method = method
    return result


# -------------------------------------------------------------- HW transfer
def sw_search_on(
    hw,
    workload: Union[str, Network, Sequence[str]],
    scenario: str,
    budget: int,
    seed: int = 0,
):
    """Run a fresh SW mapping search for a *fixed* hardware on a workload.

    This is the validation step of Sections 4.3-4.4: a hardware found by
    co-optimization is applied to an unseen network with an individual
    mapping search.  Returns the finished
    :class:`~repro.core.evaluation.SWSearchTrial`.
    """
    from repro.core.evaluation import SWSearchTrial

    network = resolve_workload(workload)
    _space, engine, _caps, tool, _workers = make_platform(scenario, network)
    trial = SWSearchTrial(hw, network, engine, tool=tool, seed=seed)
    trial.run(budget)
    return trial


# ------------------------------------------------------------------ HV curves
def combined_reference(
    results: Sequence[CoSearchResult], margin: float = 1.1
) -> np.ndarray:
    """A shared HV reference point beyond every method's observations."""
    all_points = [r.feasible_timeline_points() for r in results]
    stacked = np.vstack([p for p in all_points if p.size]) if any(
        p.size for p in all_points
    ) else np.zeros((0, 3))
    if stacked.size == 0:
        raise ConfigurationError("no feasible points across results")
    return stacked.max(axis=0) * margin + 1e-12


def ideal_front(results: Sequence[CoSearchResult]) -> np.ndarray:
    """The reference Pareto front: non-dominated union of all methods."""
    points = [r.feasible_timeline_points() for r in results]
    stacked = np.vstack([p for p in points if p.size])
    return pareto_front(stacked)


def hv_difference_curve(
    result: CoSearchResult,
    reference: np.ndarray,
    ideal_hv: float,
    time_grid_s: Sequence[float],
) -> List[Tuple[float, float]]:
    """HV difference vs simulated time, sampled on ``time_grid_s``.

    At each grid time, the achieved front is the non-dominated set of all
    feasible evaluations completed by then.
    """
    entries = sorted(result.timeline, key=lambda e: e.time_s)
    curve: List[Tuple[float, float]] = []
    accumulated: List[np.ndarray] = []
    cursor = 0
    for t in time_grid_s:
        while cursor < len(entries) and entries[cursor].time_s <= t:
            if entries[cursor].feasible:
                accumulated.append(entries[cursor].ppa_vector)
            cursor += 1
        if accumulated:
            achieved = hypervolume(np.vstack(accumulated), reference)
        else:
            achieved = 0.0
        curve.append((float(t), max(0.0, ideal_hv - achieved)))
    return curve


def final_hypervolume(result: CoSearchResult, reference: np.ndarray) -> float:
    """Hypervolume of all feasible evaluations w.r.t. ``reference``."""
    points = result.feasible_timeline_points()
    if points.size == 0:
        return 0.0
    return hypervolume(points, reference)


def time_grid(
    results: Sequence[CoSearchResult], num_points: int = 20
) -> np.ndarray:
    """A common simulated-time grid spanning every method's run."""
    horizon = max(r.total_time_s for r in results)
    return np.linspace(horizon / num_points, horizon, num_points)
