"""One run recipe: every route that starts a run wires the same search.

The differential test sends one spec through the four routes a run can
take — ``run_method(run_store=…)``, the hub's ``submit`` + child entry
point, and each of them killed after iteration 1 and resumed — and asserts
equal results, equal manifests and equal journals: whole journals under
the shared normalisation (:mod:`tests.tracking.journal_lines`), where a
resumed route differs from a straight one only in its ``resume`` line and
its closing ``engine_snapshot``.  The hub child runs in-process (it only
resets two signal handlers, which the ``restore_signal_handlers`` fixture
puts back), so a "kill" is the same deterministic ``KeyboardInterrupt`` on
every route.
"""

import contextlib
import dataclasses
import json
import pathlib
import signal

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, TrackingError
from repro.experiments.harness import RunSpec, resume_run, run_method
from repro.experiments.presets import get_preset
from repro.hub.scheduler import RunScheduler, _execute_run
from repro.obs.profile import build_profile, spans_from_journal
from repro.tracking.journal import read_events
from repro.tracking.store import RunStore
from repro.tracking.tracker import JournalTracker, replay_iteration_records
from tests.tracking.journal_lines import RESUME_LINES, journal_lines

WORKLOAD = "mobilenet"
HUB_SPEC = {
    "method": "unico",
    "scenario": "edge",
    "workload": WORKLOAD,
    "preset": "smoke",
    "seed": 11,
    "eval_batch_size": 8,
}
#: manifest keys that say how a run's life went, not which search it is
LIFECYCLE_KEYS = {"run_id", "created_at", "status", "submitted_via", "error"}


@contextlib.contextmanager
def killed_after(iterations):
    """Every ``JournalTracker`` dies, as on a kill, once that many
    iterations are journaled and committed."""
    original = JournalTracker.on_iteration_committed

    def dying(self, optimizer):
        original(self, optimizer)
        if optimizer.completed_iterations >= iterations:
            raise KeyboardInterrupt("simulated kill")

    JournalTracker.on_iteration_committed = dying
    try:
        with pytest.raises(KeyboardInterrupt):
            yield
    finally:
        JournalTracker.on_iteration_committed = original


@pytest.fixture
def restore_signal_handlers():
    saved = {
        number: signal.getsignal(number)
        for number in (signal.SIGTERM, signal.SIGINT)
    }
    yield
    for number, handler in saved.items():
        signal.signal(number, handler)


def _run_method(store, **overrides):
    keywords = dict(seed=11, eval_batch_size=8, run_store=store)
    keywords.update(overrides)
    return run_method("unico", "edge", WORKLOAD, "smoke", **keywords)


def _result_digest(result):
    return (
        sorted(map(tuple, result.pareto.points.tolist())),
        result.total_engine_queries,
        result.total_time_s,
        result.total_hw_evaluated,
    )


def _committed(run):
    """``completed_iterations`` of each of the journal's state lines."""
    return [
        event["completed_iterations"]
        for event in read_events(run.journal_path).of_type("iteration_state")
    ]


class TestFourRoutesOneSearch:
    @pytest.fixture
    def routes(self, tmp_path, restore_signal_handlers):
        """``{route: (run, result or None)}``; the hub child returns none."""
        routes = {}
        # (a) the CLI / library route
        store = RunStore(tmp_path / "a")
        result = _run_method(store)
        routes["run_method"] = (store.get(result.extras["run_id"]), result)
        # (b) the hub route: submit, then the child's entry point
        scheduler = RunScheduler(tmp_path / "b")
        run_id = scheduler.submit(dict(HUB_SPEC))
        _execute_run(str(scheduler.store.root), run_id, False)
        routes["hub"] = (scheduler.store.get(run_id), None)
        # (c) route (a), killed after iteration 1 and resumed
        store = RunStore(tmp_path / "c")
        with killed_after(1):
            _run_method(store)
        (run,) = store.list_runs()
        routes["run_method_resumed"] = (run, resume_run(run))
        # (d) route (b), killed likewise and continued by the hub child
        scheduler = RunScheduler(tmp_path / "d")
        run_id = scheduler.submit(dict(HUB_SPEC))
        with killed_after(1):
            _execute_run(str(scheduler.store.root), run_id, False)
        _execute_run(str(scheduler.store.root), run_id, True)
        routes["hub_resumed"] = (scheduler.store.get(run_id), None)
        return routes

    def test_equal_results_journals_and_manifests(self, routes):
        reference_run, reference = routes["run_method"]
        untracked = run_method(
            "unico", "edge", WORKLOAD, "smoke", seed=11, eval_batch_size=8
        )
        assert _result_digest(reference) == _result_digest(untracked)
        assert _result_digest(routes["run_method_resumed"][1]) == (
            _result_digest(reference)
        )
        (end,) = read_events(reference_run.journal_path).of_type("run_end")
        assert end["total_engine_queries"] == reference.total_engine_queries
        assert end["pareto_size"] == len(reference.pareto.points)
        manifest = {
            key: value
            for key, value in reference_run.read_manifest().items()
            if key not in LIFECYCLE_KEYS
        }
        for route, (run, _result) in routes.items():
            drop = RESUME_LINES if route.endswith("_resumed") else ()
            assert journal_lines(run.journal_path, drop) == (
                journal_lines(reference_run.journal_path, drop)
            ), route
            assert replay_iteration_records(run.journal_path) == (
                reference.extras["iteration_records"]
            ), route
            other = run.read_manifest()
            assert other["status"] == "completed", route
            assert {
                key: value for key, value in other.items()
                if key not in LIFECYCLE_KEYS
            } == manifest, route

    def test_manifest_is_the_spec_plus_what_the_optimizer_knows(self, routes):
        run, _result = routes["hub"]
        manifest = run.read_manifest()
        spec = RunSpec.from_manifest(manifest)
        assert spec == RunSpec.from_manifest(HUB_SPEC)
        assert set(spec.to_manifest()) | {"space", "engine", "config"} <= (
            set(manifest)
        )
        assert manifest["submitted_via"] == "hub"
        assert manifest["engine"] == "MaestroEngine"


class TestRunSpec:
    def test_round_trips_every_field(self, tmp_path):
        custom = dataclasses.replace(get_preset("smoke"), name="custom-tiny")
        spec = RunSpec(
            method="msh_champion",
            scenario="cloud",
            workload=["mobilenet", "fsrcnn_120x320"],
            preset=custom,
            seed=7,
            time_budget_s=3600.0,
            eval_batch_size=8,
            tool="gamma",
            checkpoint_every=5,
            record_samples=True,
            screen=str(tmp_path / "model.json"),
            screen_topk=4,
            trace=True,
        )
        defaults = RunSpec("unico", "edge", WORKLOAD)
        for field in dataclasses.fields(RunSpec):
            if field.name not in ("preset", "preset_params"):
                assert getattr(spec, field.name) != getattr(defaults, field.name)
        assert spec.preset == "custom-tiny"
        assert spec.preset_params == dataclasses.asdict(custom)
        manifest = json.loads(json.dumps(spec.to_manifest()))
        assert RunSpec.from_manifest(manifest) == spec
        assert RunSpec.from_manifest(defaults.to_manifest()) == defaults

    def test_in_memory_inputs_serialise_as_they_always_did(self):
        from repro.workloads.registry import get_network

        names = [WORKLOAD, "fsrcnn_120x320"]
        for workload, recorded in (
            (get_network(WORKLOAD), WORKLOAD), (tuple(names), names),
        ):
            spec = RunSpec("unico", "edge", workload, screen=object(), screen_topk=4)
            manifest = spec.to_manifest()
            assert manifest["workload"] == recorded
            assert manifest["screen"] == {"model_path": None, "topk": 4}
            assert "screen_topk" not in manifest

    def test_manifests_from_before_the_keys_existed_read_as_defaults(self):
        spec = RunSpec.from_manifest(
            {"method": "unico", "scenario": "edge", "workload": WORKLOAD}
        )
        assert spec == RunSpec("unico", "edge", WORKLOAD, "smoke")
        assert (spec.checkpoint_every, spec.trace, spec.seed) == (1, False, 0)

    @pytest.mark.parametrize(
        "broken, message",
        [
            ({"method": "grad_student_descent"}, "unknown method"),
            ({"scenario": "A"}, "unknown scenario"),
            ({"workload": "tiny_cnn"}, "unknown network"),
            ({"workload": None}, "lacks"),
            ({"preset": "huge"}, "unknown preset"),
            ({"seed": "eleven"}, "bad run manifest"),
            ({"screen": {"model_path": None, "topk": 4}}, "in-memory model"),
            ({"checkpoint_every": -1}, "checkpoint_every must be >= 0"),
            ({"eval_batch_size": 0}, "eval_batch_size must be >= 1"),
        ],
    )
    def test_the_one_validator(self, broken, message):
        with pytest.raises(ConfigurationError, match=message):
            RunSpec.from_manifest(dict(HUB_SPEC, **broken))


class TestHubSubmitStaysNarrow:
    """``POST /runs`` lands in ``RunScheduler.submit``: a bad spec is a
    ``ConfigurationError`` (HTTP 400), and no field that names a file on
    the hub's disk is reachable from the network."""

    @pytest.mark.parametrize(
        "extra", ["screen", "record_samples", "trace", "preset_params", "bogus"]
    )
    def test_unknown_fields_rejected(self, tmp_path, extra):
        with pytest.raises(ConfigurationError, match="unknown run-spec"):
            RunScheduler(tmp_path / "runs").submit(dict(HUB_SPEC, **{extra: 1}))

    @pytest.mark.parametrize(
        "broken",
        [
            {"scenario": "A"},
            {"workload": "tiny_cnn"},
            {"method": ""},
            {"checkpoint_every": -1},
            {"eval_batch_size": 0},
        ],
    )
    def test_bad_values_rejected_before_a_run_exists(self, tmp_path, broken):
        scheduler = RunScheduler(tmp_path / "runs")
        with pytest.raises(ConfigurationError):
            scheduler.submit(dict(HUB_SPEC, **broken))
        assert scheduler.store.list_runs() == []


class TestTraceFileIsTheJournalsTrace:
    """``trace.json`` is what ``repro runs trace`` writes from the journal,
    byte for byte, on a straight run and on a killed and resumed one."""

    def _runs_trace(self, store, run, tmp_path, capsys):
        out = tmp_path / "runs_trace.json"
        assert main(
            ["runs", "trace", run.run_id, "--runs-dir", str(store.root),
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        return out.read_bytes()

    def test_traced_run(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        result = _run_method(store, trace=True)
        run = store.get(result.extras["run_id"])
        written = pathlib.Path(result.extras["trace_path"]).read_bytes()
        assert written == self._runs_trace(store, run, tmp_path, capsys)

    def test_killed_and_resumed_traced_run(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        with killed_after(1):
            _run_method(store, trace=True)
        (run,) = store.list_runs()
        resumed = resume_run(run)
        written = pathlib.Path(resumed.extras["trace_path"]).read_bytes()
        assert written == self._runs_trace(store, run, tmp_path, capsys)


class TestResumedRunIsWiredAsItWasStarted:
    def test_resumed_traced_run_keeps_journaling_spans(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        with killed_after(1):
            _run_method(store, trace=True)
        (run,) = store.list_runs()
        assert run.read_manifest()["trace"] is True
        resumed = resume_run(run)

        events = read_events(run.journal_path).events
        cut = [e["type"] for e in events].index("resume")
        before = [e for e in events[:cut] if e["type"] == "span"]
        after = [e for e in events[cut:] if e["type"] == "span"]
        assert before and after
        # one trace id per process lifetime, the resumed one in the result
        assert len({e["trace_id"] for e in before}) == 1
        assert {e["trace_id"] for e in after} == {resumed.extras["trace_id"]}
        assert before[0]["trace_id"] != resumed.extras["trace_id"]
        # trace.json covers the whole run, not the resumed half
        trace = json.loads(pathlib.Path(resumed.extras["trace_path"]).read_text())
        wall_events = [
            e for e in trace["traceEvents"] if e.get("cat") == "wall"
        ]
        assert len(wall_events) == len(before) + len(after)
        # `runs profile` attributes time to the resumed iteration too
        profile = build_profile(spans_from_journal(run.journal_path))
        iterations = next(p for p in profile.phases if p.name == "iteration")
        assert iterations.count == 2
        assert [
            e["attrs"]["iteration"] for e in after if e["name"] == "iteration"
        ] == [1]
        assert main(
            ["runs", "profile", run.run_id, "--runs-dir", str(store.root)]
        ) == 0
        assert "iteration" in capsys.readouterr().out

    def test_resumed_run_reports_what_a_fresh_one_does(self, tmp_path):
        fresh = _run_method(RunStore(tmp_path / "fresh"))
        store = RunStore(tmp_path / "killed")
        with killed_after(1):
            _run_method(store)
        (run,) = store.list_runs()
        resumed = resume_run(run)
        assert set(resumed.extras) - set(fresh.extras) == {
            "resumed_from_iteration"
        }
        assert resumed.method == fresh.method == "unico"
        # the query count survives the kill (it used to restart at zero)
        assert resumed.total_engine_queries == fresh.total_engine_queries

    def test_checkpoint_every_is_recorded_and_honoured(self, tmp_path):
        four = dataclasses.replace(
            get_preset("smoke"), name="four-iterations", unico_iterations=4
        )
        store = RunStore(tmp_path / "runs")
        with killed_after(2):
            run_method(
                "unico", "edge", WORKLOAD, four, seed=11,
                run_store=store, checkpoint_every=2,
            )
        (run,) = store.list_runs()
        assert run.read_manifest()["checkpoint_every"] == 2
        assert _committed(run) == [2]
        resume_run(run)
        assert _committed(run) == [2, 4]

    def test_resume_may_still_override_checkpoint_every(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with killed_after(1):
            _run_method(store, checkpoint_every=1)
        (run,) = store.list_runs()
        resume_run(run, checkpoint_every=0)
        assert _committed(run) == [1]

    def test_hub_run_resumes_at_its_submitted_period(
        self, tmp_path, restore_signal_handlers
    ):
        scheduler = RunScheduler(tmp_path / "runs")
        run_id = scheduler.submit(
            dict(HUB_SPEC, workload="fsrcnn_120x320", preset="bench",
                 checkpoint_every=2)
        )
        run = scheduler.store.get(run_id)
        assert run.read_manifest()["checkpoint_every"] == 2
        with killed_after(2):
            _execute_run(str(scheduler.store.root), run_id, False)
        _execute_run(str(scheduler.store.root), run_id, True)
        assert run.read_manifest()["status"] == "completed"
        assert _committed(run) == [2, 4]

    def test_in_memory_screen_cannot_be_resumed(self, tmp_path):
        run = RunStore(tmp_path / "runs").create_run(
            dict(
                RunSpec("unico", "edge", WORKLOAD).to_manifest(),
                screen={"model_path": None, "topk": 4},
            )
        )
        run.journal_path.write_text("")
        with pytest.raises(TrackingError, match="in-memory model"):
            resume_run(run)
