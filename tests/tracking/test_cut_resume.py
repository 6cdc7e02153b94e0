"""Cut anywhere, resume to the same lines.

A run is its journal: each committed iteration ends with an
``iteration_state`` line, and a resume cuts the journal back to the end of
the last complete one, folds the states onto a fresh optimizer and
continues.  This file takes one straight tracked search (the smoke preset
at four iterations, seed 11, look-ahead 8, engine samples on), cuts its
journal at byte offsets of every kind, resumes each cut, and asserts that
the resumed journal is the straight one: equal under the shared
normalisation (:mod:`tests.tracking.journal_lines`) except for its
``resume`` line and the closing ``engine_snapshot``, and byte-equal up to
where the cut landed.  A cut before the first state line is refused.
"""

import bisect
import dataclasses
import itertools
import signal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrackingError
from repro.experiments.harness import RunSpec, launch, resume_run
from repro.experiments.presets import get_preset
from repro.hub.scheduler import _execute_run
from repro.tracking.journal import last_state_end, read_events, verify_sequence
from repro.tracking.store import RunStore
from tests.tracking.journal_lines import RESUME_LINES, journal_lines, line_type

SPEC = RunSpec(
    "unico", "edge", "mobilenet",
    dataclasses.replace(get_preset("smoke"), name="smoke-4", unico_iterations=4),
    seed=11, eval_batch_size=8, record_samples=True,
)


@pytest.fixture(scope="module")
def straight(tmp_path_factory):
    """The uninterrupted run's journal, its line ends and its state ends."""
    store = RunStore(tmp_path_factory.mktemp("straight"))
    result = launch(SPEC, run=store)
    run = store.get(result.extras["run_id"])
    raw = run.journal_path.read_bytes()
    lines = raw.splitlines(keepends=True)
    ends = list(itertools.accumulate(map(len, lines)))
    types = [line_type(line) for line in lines]
    state_ends = [end for end, kind in zip(ends, types) if kind == "iteration_state"]
    return SimpleNamespace(
        raw=raw,
        manifest=run.read_manifest(),
        starts=[0] + ends[:-1],
        ends=ends,
        types=types,
        state_ends=state_ends,
        #: what a resume landing at each state end must write after it
        tails={end: journal_lines(raw[end:], RESUME_LINES) for end in state_ends},
        cuts=RunStore(tmp_path_factory.mktemp("cuts")),
    )


def _landing(straight, cut):
    """The end of the last complete ``iteration_state`` at or before ``cut``."""
    index = bisect.bisect_right(straight.state_ends, cut)
    return straight.state_ends[index - 1] if index else 0


def _cut_run(straight, cut):
    """A run directory holding the straight journal cut at ``cut``."""
    run = straight.cuts.create_run(
        dict(straight.manifest, status="running"), run_id=f"cut-{cut}"
    )
    run.journal_path.write_bytes(straight.raw[:cut])
    return run


def _assert_resumes_to_the_same_lines(straight, cut, resume=resume_run):
    run = _cut_run(straight, cut)
    landing = _landing(straight, cut)
    if not landing:
        with pytest.raises(TrackingError, match="no checkpoint"):
            resume(run)
        assert run.journal_path.read_bytes() == straight.raw[:cut]
        return run
    resume(run)
    resumed = run.journal_path.read_bytes()
    assert resumed[:landing] == straight.raw[:landing], cut
    assert resumed[landing:].count(b'"type": "resume"') == 1, cut
    tail = journal_lines(resumed[landing:], RESUME_LINES)
    assert tail == straight.tails[landing], cut
    return run


def test_every_byte_offset_lands_on_the_last_state_before_it(straight):
    raw, ends = straight.raw, straight.state_ends
    assert len(ends) == 4
    assert ends[-1] == straight.starts[-2]  # then the snapshot and run_end
    expected = [0] * ends[0]
    for landing, following in zip(ends, ends[1:] + [len(raw) + 1]):
        expected += [landing] * (following - landing)
    assert [last_state_end(raw, cut) for cut in range(len(raw) + 1)] == expected


def test_cut_before_the_first_state_is_refused(straight):
    for cut in (0, straight.state_ends[0] - 1):
        _assert_resumes_to_the_same_lines(straight, cut)


def test_every_boundary_of_a_non_sample_line(straight):
    cuts = sorted({
        offset
        for start, end, kind in zip(straight.starts, straight.ends, straight.types)
        if kind != "engine_sample"
        for offset in (start, end)
    })
    for cut in cuts:
        _assert_resumes_to_the_same_lines(straight, cut)


def test_every_line_boundary_inside_one_sample_group(straight):
    """The last iteration's first run of more than ten sample lines of one
    ``hw``: a trial's first engine call, one line per layer, written as one
    group.  In the last iteration, each resume re-runs one iteration."""
    lines = straight.raw.splitlines()

    def call(index):
        if straight.types[index] != "engine_sample":
            return None
        return lines[index].partition(b'"hw": ')[2].partition(b"}")[0]

    first = straight.ends.index(straight.state_ends[-2]) + 1
    runs = itertools.groupby(range(first, len(lines)), key=call)
    group = next(
        indices
        for indices in (list(run) for hw, run in runs if hw is not None)
        if len(indices) > 10
    )
    for index in group[1:]:
        _assert_resumes_to_the_same_lines(straight, straight.starts[index])


@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_mid_line_cuts(straight, data):
    index = data.draw(st.integers(0, len(straight.ends) - 1), label="line")
    start, end = straight.starts[index], straight.ends[index]
    cut = data.draw(st.integers(start + 1, end - 1), label="cut")
    _assert_resumes_to_the_same_lines(straight, cut)


@pytest.fixture
def restore_signal_handlers():
    saved = {
        number: signal.getsignal(number)
        for number in (signal.SIGTERM, signal.SIGINT)
    }
    yield
    for number, handler in saved.items():
        signal.signal(number, handler)


def test_the_hub_child_resumes_iteration_boundary_cuts(
    straight, restore_signal_handlers
):
    def hub_child(run):
        _execute_run(str(straight.cuts.root), run.run_id, True)

    for cut in straight.state_ends:
        run = _assert_resumes_to_the_same_lines(straight, cut, resume=hub_child)
        verify_sequence(read_events(run.journal_path))
        assert run.read_manifest()["status"] == "completed"
