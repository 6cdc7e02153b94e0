"""Golden journal: the bytes a tracked search writes, pinned across commits.

``tests/mapping/test_golden_history.py`` pins the search; this file pins
what the search *records*.  The digests were first taken at commit
4b6d39c — one ``os.write`` and one ``json.dumps`` per event, one sink call
per sample — before the samples of an ``evaluate_layers`` call were
group-committed, and held the group-commit path to the same lines in the
same order with the same ``seq``.  Both were re-recorded (from 521 events
/ 476 samples) when the inner search began to buy drafts only as deep as
its hit record justifies: the search is the same (the golden histories
did not move) but it evaluates 53 fewer candidates it would have thrown
away, so there are 53 fewer ``engine_sample`` lines, and inside one
engine call the samples now come in proposal order (the missed candidate,
then its drafts) instead of grouped by layer.  Re-recorded again, at the
same 468 events / 423 samples, when the serial backend began to advance
the live trials of an MSH round in lockstep: every trial still writes the
same ``engine_sample`` lines in the same order, but inside a round the
lines of different trials now interleave tick by tick instead of trial
after trial (``tests/core/test_lockstep_round.py`` holds the per-trial
streams equal), and the closing ``engine_snapshot`` counts a lone
candidate's request in a tick as a one-item group (``batch_queries`` 104
-> 122).  ``all_lines`` alone moved once more when the thread and process
round backends went: the closing ``engine_snapshot`` lost its ``runner``
block and the three ``runner_*`` instruments, and no other line changed.
``all_lines`` alone moved again when the in-process engine began to time
a call instead of each group of it: in the closing ``engine_snapshot``
the ``engine_compute_seconds`` count fell 120 -> 58 and the per-item
histogram's 118 -> 56 (one observation per engine call that computed
something, two of the 58 being scalar ``evaluate_layer`` misses), and no
other line changed.  ``all_lines`` alone moved again when a one-item call
became a one-item group of the one accounting path: in the closing
``engine_snapshot`` those two misses now count as groups too
(``batch_queries`` and the ``engine_batch_size`` count 122 -> 124,
``batch_items`` 453 -> 455, the per-item histogram's count 56 -> 58), and
no other line changed.  ``all_lines`` alone moved again when checkpoint
files gave way to the journal's own state: each of the two ``checkpoint``
lines (after ``iteration_end``) became one ``iteration_state`` line after
``search_health``, at the same 468 events; with those lines and ``seq``
dropped, every other line is what it was, in the same order, and the
``engine_sample`` lines did not move at all.

``engine_sample`` lines carry no wall clock and are hashed raw.  Every
other line is hashed raw too, after the shared normalisation
(:func:`tests.tracking.journal_lines.normalised`) blanks the three things
that differ between two runs of one commit: ``wall_time`` stamps, the
``run_id``, and the measured seconds inside ``engine_snapshot``
histograms (their counts stay, as does every counter — the journal's
copy of ``engine.stats()``).  Run this file first after touching
``repro.tracking`` or the engine's sample hand-off; ``python -m
tests.tracking.test_golden_journal`` prints the table for a change that
is *meant* to alter the journal.
"""

import hashlib
import tempfile

from repro.experiments.harness import run_method
from repro.tracking.journal import read_events, verify_sequence
from repro.tracking.store import RunStore
from tests.tracking.journal_lines import normalised

GOLDEN = {
    "events": 468,
    "engine_samples": 423,
    "engine_sample_lines": (
        "50ef6262b6ad6bdb8e74a077d893d037b8324729e39d98860dc83cedfd327fe4"
    ),
    "all_lines": (
        "aa75da8ffdc563316bec7fcb8abc135595963e837fb817471e01296458ab2eea"
    ),
}

def tracked_journal(root):
    """Path of the journal of one small tracked, sample-recording search."""
    result = run_method(
        "unico", "edge", "mobilenet", "smoke", seed=11,
        run_store=root, record_samples=True, eval_batch_size=8,
    )
    return RunStore(root).get(result.extras["run_id"]).journal_path


def journal_digests(path):
    samples, everything = hashlib.sha256(), hashlib.sha256()
    counts = {"events": 0, "engine_samples": 0}
    with open(path, "rb") as handle:
        for line in handle:
            counts["events"] += 1
            if b'"type": "engine_sample"' in line:
                counts["engine_samples"] += 1
                samples.update(line)
                everything.update(line)
            else:
                everything.update(normalised(line))
    return dict(
        counts,
        engine_sample_lines=samples.hexdigest(),
        all_lines=everything.hexdigest(),
    )


def test_tracked_search_writes_the_golden_lines(tmp_path):
    path = tracked_journal(tmp_path / "runs")
    scan = read_events(path)
    assert not scan.truncated_tail
    verify_sequence(scan)
    digests = journal_digests(path)
    # lockstep moved where the lines sit, never how many there are
    assert (digests["events"], digests["engine_samples"]) == (468, 423)
    assert digests == GOLDEN


if __name__ == "__main__":  # prints the table above, for re-recording
    with tempfile.TemporaryDirectory() as scratch:
        for key, value in journal_digests(tracked_journal(scratch)).items():
            print(f"    {key!r}: {value!r},")
