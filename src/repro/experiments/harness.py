"""Experiment harness: method registry, the run recipe and HV-curve utilities.

One recipe turns a (method, scenario, workload, preset) cell into a wired,
running co-search: a :class:`RunSpec` is the run's manifest and
:func:`launch` the only code that builds the optimizer for a run and wires
tracker, screening, sample sink and tracer onto it.  :func:`run_method`,
:func:`resume_run` and the hub's run child are each "make a ``RunSpec``,
call ``launch``" and return the uniform
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

import dataclasses
import os
import pathlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.camodel.engine import NOISE_FRACTION, AscendCAEngine
from repro.core.base import CoSearchResult
from repro.core.checkpoint import fold_journal
from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.errors import ConfigurationError, TrackingError
from repro.experiments.presets import Preset, get_preset
from repro.hw.ascend import ASCEND_AREA_CAP_MM2, ascend_design_space, default_ascend_config
from repro.hw.spatial import design_space_for, power_cap_for
from repro.methods import METHODS, SCENARIOS
from repro.optim.hypervolume import hypervolume
from repro.optim.pareto import pareto_front
from repro.utils.records import RunRecord, to_jsonable
from repro.workloads.network import Network, merge_networks
from repro.workloads.registry import get_network

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

def _check_choice(kind: str, value, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ConfigurationError(f"unknown {kind} {value!r}; use one of {choices}")


def resolve_workload(workload: Union[str, Network, Sequence[str]]) -> Network:
    """Accept a network name, a Network, or a list of names (merged); the
    network of a ``+``-joined name is the merge of its parts."""
    if isinstance(workload, Network):
        return workload
    names = workload.split("+") if isinstance(workload, str) else list(workload)
    if len(names) == 1:
        return get_network(names[0])
    return merge_networks("+".join(names), [get_network(n) for n in names])


def make_platform(scenario: str, network: Network):
    """Return (design space, engine, caps dict, tool, workers) for a scenario."""
    _check_choice("scenario", scenario, SCENARIOS)
    if scenario == "ascend":
        space = ascend_design_space()
        engine = AscendCAEngine(network, noise_fraction=NOISE_FRACTION)
        caps = {"power_cap_w": None, "area_cap_mm2": ASCEND_AREA_CAP_MM2}
        return space, engine, caps, "fusion", 4
    space = design_space_for(scenario)
    engine = MaestroEngine(network)
    caps = {"power_cap_w": power_cap_for(scenario), "area_cap_mm2": None}
    # UNICO runs its successive-halving jobs via multiprocessing on the
    # server's cores (Section 3.5); the sequential-BO baselines cannot.
    return space, engine, caps, "flextensor", 8


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

    This is the factory :func:`launch` drives, for a fresh run and for a
    resumed one alike (the journal's state is folded onto what it returns).

    ``eval_batch_size`` bounds the candidates of one PPA-engine call of
    the inner mapping search (a missed step plus drafts of the steps that
    follow, as deep as the search's hit record justifies); trajectories
    are byte-identical at every value, and 1 — the default here and in
    ``UnicoConfig`` — buys no drafts at all.

    ``tool`` overrides the scenario's default SW mapping tool (e.g.
    ``"oneloop"`` for the learned gradient-descent search); ``None``
    keeps the platform default.

    A ``+``-joined ``workload`` name (``"bert+mobilenet"``) co-optimizes
    one accelerator for each of its networks: every candidate runs one
    mapping-search job per network (Fig. 6a,
    :mod:`repro.core.multiworkload`), where a list of names searches
    their merged network.
    """
    _check_choice("method", method, METHODS)
    preset = get_preset(preset) if isinstance(preset, str) else preset
    network = resolve_workload(workload)
    space, engine, caps, default_tool, workers = make_platform(scenario, network)
    tool = default_tool if tool is None else tool
    trial_factory = None
    if isinstance(workload, str) and "+" in workload:
        # Fig. 6a: a candidate runs one mapping-search job per workload
        from repro.core.multiworkload import multi_workload_trial_factory

        engine, trial_factory = multi_workload_trial_factory(
            [get_network(name) for name in workload.split("+")],
            lambda job_network, _clock: make_platform(scenario, job_network)[1],
            tool=tool,
        )
        network = engine.network

    if method in _UNICO_VARIANTS:
        variant = _UNICO_VARIANTS[method]
        batch, iters, budget = (
            preset.unico_batch, preset.unico_iterations, preset.unico_budget
        )
        initial_configs = ()
        if scenario == "ascend":
            # the industrial deployment has its own budget columns and
            # warm-starts from the expert default (§4.6)
            batch, iters, budget = (
                preset.ascend_batch, preset.ascend_iterations, preset.ascend_budget
            )
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
            space, network, engine, config, tool=tool, seed=seed,
            trial_factory=trial_factory, **caps
        )
    else:
        # a baseline's module loads only when it is the method: each
        # branch names the optimizer, its config and config field ->
        # preset field
        if method == "hasco":
            from repro.core.baselines.hasco import HascoBaseline, HascoConfig

            optimizer_cls, config_cls = HascoBaseline, HascoConfig
            fields = dict(max_candidates="hasco_candidates", full_budget="hasco_budget")
        elif method == "nsgaii":
            from repro.core.baselines.nsga2_codesign import NSGA2Codesign, NSGA2CodesignConfig

            optimizer_cls, config_cls = NSGA2Codesign, NSGA2CodesignConfig
            fields = dict(
                population_size="nsga_population",
                max_generations="nsga_generations",
                eval_budget="nsga_budget",
            )
        elif method == "mobohb":
            from repro.core.baselines.mobohb import MobohbBaseline, MobohbConfig

            optimizer_cls, config_cls = MobohbBaseline, MobohbConfig
            fields = dict(max_budget="mobohb_budget", max_hyperband_loops="mobohb_loops")
        else:  # random
            from repro.core.baselines.random_codesign import RandomCodesign, RandomCodesignConfig

            optimizer_cls, config_cls = RandomCodesign, RandomCodesignConfig
            fields = dict(max_candidates="hasco_candidates", full_budget="hasco_budget")
        config = config_cls(
            time_budget_s=time_budget_s,
            **{name: getattr(preset, source) for name, source in fields.items()},
        )
        optimizer = optimizer_cls(
            space, network, engine, config, tool=tool, seed=seed,
            eval_batch_size=eval_batch_size, trial_factory=trial_factory, **caps
        )
    return optimizer


# ----------------------------------------------------------------- run recipe
_PRESET_FIELDS = tuple(field.name for field in dataclasses.fields(Preset))


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything that decides which search a run is; also its manifest.

    The fields are :func:`run_method`'s keyword arguments.  ``workload`` is
    a network name, a list of names (merged) or an in-memory
    :class:`Network`; ``preset`` may be a :class:`Preset` and is stored as
    its name plus ``preset_params``, the full parameters, so a run with a
    custom (unregistered) preset stays resumable; ``tool`` overrides the
    scenario's mapping tool (e.g. ``oneloop``); ``eval_batch_size``
    bounds the candidates per engine call of the inner search (see
    :func:`build_optimizer`; default 1, no look-ahead).  On a tracked run,
    ``record_samples`` journals every computed candidate as an
    ``engine_sample`` event (the corpus of ``repro learned train``),
    ``trace`` journals ``span`` events and writes ``trace.json`` (Chrome
    trace format) and ``checkpoint_every`` is the period, in iterations,
    of the ``iteration_state`` lines a resume folds (0: not resumable);
    all three are recorded, so a resumed run is observed and committed
    the way it was started.  ``screen`` (a model path or a
    loaded :class:`~repro.learned.model.LearnedCostModel`) forwards only the
    model's predicted-best ``screen_topk`` candidates per batch to the
    analytical engine.  Tracing and ``screen=None`` leave results
    bit-identical; every surfaced number is exact analytical PPA.
    """

    method: str
    scenario: str
    workload: Union[str, Network, Sequence[str]]
    preset: Union[str, Preset] = "smoke"
    preset_params: Optional[Dict] = None
    seed: int = 0
    time_budget_s: Optional[float] = None
    eval_batch_size: int = 1
    tool: Optional[str] = None
    checkpoint_every: int = 1
    record_samples: bool = False
    screen: object = None
    screen_topk: Optional[int] = None
    trace: bool = False

    def __post_init__(self):
        if (
            self.screen is not None
            and isinstance(self.workload, str)
            and "+" in self.workload
        ):
            raise ConfigurationError(
                "a '+'-joined workload searches each network on its own "
                "engine; screening wraps one engine and would be bypassed"
            )
        if self.preset_params is None:
            preset = self.preset
            if not isinstance(preset, Preset):
                preset = get_preset(preset)
            params = {name: getattr(preset, name) for name in _PRESET_FIELDS}
            object.__setattr__(self, "preset", preset.name)
            object.__setattr__(self, "preset_params", params)

    @property
    def screen_path(self) -> Optional[str]:
        """The screening model's file; ``None`` without one or in memory."""
        if isinstance(self.screen, (str, os.PathLike)):
            return str(self.screen)
        return None

    def to_manifest(self) -> Dict:
        """The one manifest shape, whichever route starts the run.

        :func:`launch` adds what only the built optimizer knows: ``space``,
        ``engine``, ``config`` and the screening model's provenance.
        """
        manifest = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if isinstance(self.workload, Network):
            manifest["workload"] = self.workload.name
        elif not isinstance(self.workload, str):
            manifest["workload"] = [str(name) for name in self.workload]
        manifest["preset_params"] = to_jsonable(self.preset_params)
        # the model's top-k has no meaning without the model: one key
        topk = manifest.pop("screen_topk")
        if self.screen is not None:
            manifest["screen"] = {"model_path": self.screen_path, "topk": topk}
        return manifest

    @classmethod
    def from_manifest(cls, manifest: Mapping) -> "RunSpec":
        """Validate a manifest (or a submitted run spec) into a ``RunSpec``.

        The one validator: a missing or unknown method, scenario or network,
        an unknown preset, an ``eval_batch_size`` below 1, a negative
        ``checkpoint_every`` or an unrecoverable screening model is a
        :class:`ConfigurationError`.  Keys beyond the spec (run id, status,
        totals) are ignored; spec keys a manifest lacks, because it predates
        them, read as the defaults, which is how such a run behaved.
        """
        values = {
            f.name: manifest[f.name]
            for f in dataclasses.fields(cls)
            if manifest.get(f.name) not in (None, "")
        }
        missing = [key for key in ("method", "scenario", "workload") if key not in values]
        if missing:
            raise ConfigurationError(f"run manifest lacks {missing}")
        _check_choice("method", values["method"], METHODS)
        _check_choice("scenario", values["scenario"], SCENARIOS)
        params = values.pop("preset_params", None)
        if isinstance(params, dict) and all(name in params for name in _PRESET_FIELDS):
            values["preset_params"] = {name: params[name] for name in _PRESET_FIELDS}
        screen = values.pop("screen", None)
        if screen:
            if not screen.get("model_path"):
                raise ConfigurationError(
                    "the run was screened by an in-memory model (no model_path "
                    "recorded); it cannot be rebuilt faithfully"
                )
            values.update(screen=screen["model_path"], screen_topk=screen.get("topk"))
        try:
            resolve_workload(values["workload"])
            for name in ("seed", "eval_batch_size", "checkpoint_every"):
                values[name] = int(values.get(name, getattr(cls, name)))
        except Exception as error:
            raise ConfigurationError(f"bad run manifest: {error}") from error
        for name, least in (("eval_batch_size", 1), ("checkpoint_every", 0)):
            if values[name] < least:
                raise ConfigurationError(
                    f"{name} must be >= {least}, got {values[name]}"
                )
        return cls(**values)


@dataclasses.dataclass(frozen=True)
class Experiment:
    """A table or figure of the paper: the co-searches it reads, and how.

    ``cells`` are the runs its record is made from; ``reduce`` turns their
    results, in ``cells`` order, into the record.  Searches that are not
    co-searches (the validation mapping searches of Figs. 8, 9 and 11)
    run inside ``reduce``.  ``repro.experiments.paper_runner`` launches
    each distinct cell once, however many experiments read it.
    """

    cells: Tuple[RunSpec, ...]
    reduce: Callable[[Sequence[CoSearchResult]], RunRecord]


def _resolve_screen(spec: RunSpec, resumed_run=None):
    """The spec's screening model as (model, provenance dict), or two Nones.

    The provenance (manifest, ``learned_model`` journal event) is enough to
    re-load the model on resume and to audit which model screened a run.  A
    resumed run whose model file is gone is refused: unscreened, it would
    consume analytical evaluations the original would have screened away.
    """
    if spec.screen is None:
        return None, None
    import hashlib

    from repro.learned.features import FEATURE_VERSION
    from repro.learned.model import LearnedCostModel

    path, model, sha256 = spec.screen_path, spec.screen, None
    if path is not None:
        if resumed_run is not None and not pathlib.Path(path).exists():
            raise TrackingError(
                f"run {resumed_run.run_id} was screened by {path}, which no "
                "longer exists; restore the model file before resuming"
            )
        model = LearnedCostModel.load(path)
        sha256 = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    return model, {
        "model_path": path,
        "model_sha256": sha256,
        "feature_version": FEATURE_VERSION,
        "topk": spec.screen_topk,
        "meta": dict(model.meta),
    }


def launch(
    spec: RunSpec,
    *,
    run=None,
    tracker=None,
    resume: bool = False,
    max_iterations: Optional[int] = None,
    fsync: bool = False,
) -> CoSearchResult:
    """Build, wire and run the search ``spec`` describes: the one recipe.

    ``run`` is where the search is tracked: a :class:`~repro.tracking.store.RunStore`
    allocates a fresh ``runs/<run-id>/``, a :class:`~repro.tracking.store.RunHandle`
    is a directory that exists (a hub-submitted run or, with ``resume=True``,
    an interrupted one).  Either gets the manifest and a
    :class:`~repro.tracking.tracker.JournalTracker` (lines ``fsync``-ed on request);
    ``tracker`` instead installs a caller-owned tracker, writing no manifest.
    Baselines, whose ``optimize()`` does not drive the tracker lifecycle,
    get ``run_start`` / ``run_end`` emitted here so their manifests reach a
    terminal status.  ``max_iterations`` overrides the preset's budget.
    Run id, trace id and path and model provenance land in ``result.extras``.

    ``resume=True`` folds the run's committed journal onto the fresh
    optimizer (:func:`~repro.core.checkpoint.fold_journal`), cuts the
    journal back to the end of its last ``iteration_state`` line and
    continues; it refuses (:class:`TrackingError`) a run with no such line,
    one kept in checkpoint files, a broken journal and a run whose
    screening model is gone.
    """
    if tracker is not None and run is not None:
        raise ConfigurationError(
            "pass either tracker= or run_store=, not both; run_store builds "
            "its own JournalTracker and would silently ignore the tracker"
        )
    if spec.trace and run is None:
        raise ConfigurationError(
            "trace=True requires run_store=: spans are journaled and the "
            "Chrome trace is written into the run directory"
        )
    committed = None
    if resume:
        from repro.tracking.tracker import committed_journal

        committed = committed_journal(run)
    optimizer = build_optimizer(
        spec.method,
        spec.scenario,
        spec.workload,
        Preset(**spec.preset_params),
        seed=spec.seed,
        time_budget_s=spec.time_budget_s,
        eval_batch_size=spec.eval_batch_size,
        tool=spec.tool,
    )
    if max_iterations is not None:
        optimizer.config.max_iterations = max_iterations
    screen_model, screen_info = _resolve_screen(spec, run if resume else None)
    extras = {"method_requested": spec.method, "scenario": spec.scenario}
    if run is not None and not resume:
        from repro.tracking.store import RunStore

        manifest = spec.to_manifest()
        manifest["space"] = optimizer.space.name
        manifest["engine"] = type(optimizer.engine).__name__
        manifest["config"] = to_jsonable(dataclasses.asdict(optimizer.config))
        if screen_info is not None:
            manifest["screen"] = screen_info
        if isinstance(run, RunStore):
            run = run.create_run(manifest)
        else:
            run.update_manifest(**manifest)
    if screen_model is not None:
        from repro.learned.screen import ScreeningPPAEngine

        optimizer.engine = ScreeningPPAEngine(
            optimizer.engine, model=screen_model, topk=spec.screen_topk
        )
        extras["screen_model"] = screen_info
    if committed is not None:
        fold_journal(optimizer, committed)
        extras["resumed_from_iteration"] = optimizer.completed_iterations
    if run is not None:
        from repro.tracking.tracker import JournalTracker

        tracker = JournalTracker(
            run, checkpoint_every=spec.checkpoint_every, fsync=fsync,
            resume=committed,
        )
        extras["run_id"] = run.run_id
    if tracker is not None:
        optimizer.tracker = tracker
    journal = getattr(tracker, "journal", None)
    if spec.record_samples:
        if journal is None:
            raise ConfigurationError(
                "record_samples=True needs a journal: pass run_store= (or a "
                "JournalTracker) so engine_sample events have somewhere to go"
            )
        from repro.tracking.tracker import JournalSampleSink

        optimizer.engine.sample_sink = JournalSampleSink(journal)
    if screen_info is not None and journal is not None:
        # model provenance in the journal, once per process lifetime: resume
        # and post-hoc analysis see exactly which model screened each half
        journal.append("learned_model", screen_info)
    tracer = None
    if spec.trace:
        from repro.obs.trace import JournalSpanSink, Tracer

        tracer = Tracer(clock=optimizer.clock, sinks=[JournalSpanSink(journal)])
        optimizer.set_tracer(tracer)
        trace_path = run.dir / "trace.json"
        extras.update(trace_id=tracer.trace_id, trace_path=str(trace_path))
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
            # trace.json covers the whole run, every process lifetime of
            # it: it is what `repro runs trace` writes from the journal
            from repro.obs.chrome import write_chrome_trace
            from repro.obs.profile import spans_from_journal

            write_chrome_trace(spans_from_journal(run.journal_path), trace_path)
    if harness_lifecycle:
        tracker.on_run_end(optimizer, result)
    result.extras.update(extras)
    # the baselines don't thread engine extras through optimize(); surface
    # the screening wrapper's counters for every method here
    if screen_model is not None and "screening" not in result.extras:
        result.extras["screening"] = optimizer.engine.screen_stats()
    result.method = spec.method
    return result


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

    The arguments are the fields of a :class:`RunSpec` (documented there),
    plus where to track the run: an explicit
    :class:`~repro.tracking.tracker.Tracker`, or a ``run_store`` (a
    :class:`~repro.tracking.store.RunStore` or a directory path) in which
    :func:`launch` allocates a ``runs/<run-id>/`` directory with a
    manifest and a journal.  Passing both is ambiguous and rejected.
    """
    if run_store is not None:
        from repro.tracking.store import RunStore

        if not isinstance(run_store, RunStore):
            run_store = RunStore(run_store)
    spec = RunSpec(
        method,
        scenario,
        workload,
        preset,
        seed=seed,
        time_budget_s=time_budget_s,
        eval_batch_size=eval_batch_size,
        tool=tool,
        checkpoint_every=checkpoint_every,
        record_samples=record_samples,
        screen=screen,
        screen_topk=screen_topk,
        trace=trace,
    )
    return launch(spec, run=run_store, tracker=tracker)


def resume_run(
    run,
    max_iterations: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    fsync: bool = False,
) -> CoSearchResult:
    """Continue an interrupted tracked run; returns its final result.

    ``run`` is a :class:`~repro.tracking.store.RunHandle` or a run directory
    path.  Its manifest names the search
    (:meth:`RunSpec.from_manifest`); :func:`launch` folds the journal up
    to its last ``iteration_state`` line and continues.  ``max_iterations``
    overrides the recorded budget; ``checkpoint_every`` defaults to the
    period the run recorded.
    """
    if isinstance(run, (str, pathlib.Path)):
        from repro.tracking.store import RunHandle

        run = RunHandle(run)
    try:
        spec = RunSpec.from_manifest(run.read_manifest())
    except ConfigurationError as error:
        raise TrackingError(
            f"run {run.run_id}: {error}; cannot rebuild the optimizer for resume"
        ) from error
    if checkpoint_every is not None:
        spec = dataclasses.replace(spec, checkpoint_every=checkpoint_every)
    return launch(
        spec, run=run, resume=True, max_iterations=max_iterations, fsync=fsync
    )


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
#: a combined reference is every method's worst observation times this
COMBINED_MARGIN = 1.1


def combined_reference(results: Sequence[CoSearchResult]) -> np.ndarray:
    """A shared HV reference point beyond every method's observations."""
    all_points = [r.feasible_timeline_points() for r in results]
    stacked = np.vstack([p for p in all_points if p.size]) if any(
        p.size for p in all_points
    ) else np.zeros((0, 3))
    if stacked.size == 0:
        raise ConfigurationError("no feasible points across results")
    return stacked.max(axis=0) * COMBINED_MARGIN + 1e-12


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
