"""Golden journal: the bytes a tracked search writes, pinned across commits.

``tests/mapping/test_golden_history.py`` pins the search; this file pins
what the search *records*.  The digests were taken at commit 4b6d39c —
one ``os.write`` and one ``json.dumps`` per event, one sink call per
sample — before the samples of an ``evaluate_layers`` call were
group-committed, so they hold the group-commit path to the same lines in
the same order with the same ``seq``.

``engine_sample`` lines carry no wall clock and are hashed raw.  Every
other line is hashed raw too, after blanking the three things that differ
between two runs of one commit: ``wall_time`` stamps, the ``run_id``, and
the measured seconds inside ``engine_snapshot`` histograms (their counts
stay, as does every counter — the journal's copy of ``engine.stats()``).
Run this file first after touching ``repro.tracking`` or the engine's
sample hand-off; ``python tests/tracking/test_golden_journal.py`` prints
the table for a change that is *meant* to alter the journal.
"""

import hashlib
import json
import re
import tempfile

from repro.experiments.harness import run_method
from repro.tracking import RunStore, read_events, verify_sequence

GOLDEN = {
    "events": 521,
    "engine_samples": 476,
    "engine_sample_lines": (
        "64b170ecdaee097bf8d6d16b6e803baef8578ac0341074001a817147f43cac95"
    ),
    "all_lines": (
        "d13f022dc86f05219378c65ac74d7b3e3ab9464412cb412a4b3457b2d5a3440e"
    ),
}

_WALL_TIME = re.compile(rb'"wall_time": [0-9.e+-]+')
_RUN_ID = re.compile(rb'"run_id": "[^"]*"')


def tracked_journal(root):
    """Path of the journal of one small tracked, sample-recording search."""
    result = run_method(
        "unico", "edge", "mobilenet", "smoke", seed=11,
        run_store=root, record_samples=True, eval_batch_size=8,
    )
    return RunStore(root).get(result.extras["run_id"]).journal_path


def _normalised(line: bytes) -> bytes:
    line = _RUN_ID.sub(b'"run_id": ""', _WALL_TIME.sub(b'"wall_time": 0', line))
    if b'"type": "engine_snapshot"' in line:
        event = json.loads(line)
        for name, histogram in event["metrics"]["histograms"].items():
            if "seconds" in name:
                event["metrics"]["histograms"][name] = histogram["count"]
        line = json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
    return line


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
                everything.update(_normalised(line))
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
    assert journal_digests(path) == GOLDEN


if __name__ == "__main__":  # prints the table above, for re-recording
    with tempfile.TemporaryDirectory() as scratch:
        for key, value in journal_digests(tracked_journal(scratch)).items():
            print(f"    {key!r}: {value!r},")
