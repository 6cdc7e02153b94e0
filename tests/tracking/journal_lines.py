"""One normalisation for comparing journals across runs, routes and resumes.

Two runs of one search write the same journal up to three things:
``wall_time`` stamps, the ``run_id``, and the measured seconds inside the
closing ``engine_snapshot`` histograms (their counts stay, as does every
counter).  :func:`normalised` blanks those; the golden journal hashes
its lines.  :func:`journal_lines` also blanks ``seq`` and drops whole
event types, for comparing a resumed journal with a straight one: a
resume adds its ``resume`` line, which shifts the numbering after it,
and its closing ``engine_snapshot`` counts one process lifetime, because
the engine cache is not search state.
"""

import json
import pathlib
import re

from repro.tracking.journal import last_state_end

#: the lines a resumed journal may differ in from a straight one
RESUME_LINES = ("resume", "engine_snapshot")

_WALL_TIME = re.compile(rb'"wall_time": [0-9.e+-]+')
_RUN_ID = re.compile(rb'"run_id": "[^"]*"')
_SEQ = re.compile(rb'"seq": [0-9]+')
_SAMPLE_END = b'"type": "engine_sample"}\n'


def normalised(line: bytes) -> bytes:
    """``line`` with what differs between two runs of one search blanked."""
    line = _RUN_ID.sub(b'"run_id": ""', _WALL_TIME.sub(b'"wall_time": 0', line))
    if b'"type": "engine_snapshot"' in line:
        event = json.loads(line)
        for name, histogram in event["metrics"]["histograms"].items():
            if "seconds" in name:
                event["metrics"]["histograms"][name] = histogram["count"]
        line = json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
    return line


def line_type(line: bytes) -> str:
    """The event type of one journal line (samples without a parse)."""
    if line.endswith(_SAMPLE_END):
        return "engine_sample"
    return json.loads(line)["type"]


def journal_lines(source, drop=()):
    """Normalised lines, ``seq`` blanked, ``drop`` types gone, of a journal
    file or of journal bytes."""
    if not isinstance(source, bytes):
        source = pathlib.Path(source).read_bytes()
    return [
        _SEQ.sub(b'"seq": 0', normalised(line))
        for line in source.splitlines(keepends=True)
        if line_type(line) not in drop
    ]


def cut_before_last_state(path) -> None:
    """Cut a journal just before its last ``iteration_state`` line: the
    journal of a run killed after an iteration's lines and before its
    state, one iteration ahead of what a resume can fold."""
    raw = pathlib.Path(path).read_bytes()
    end = last_state_end(raw)
    assert end, "the journal holds no iteration_state line"
    with open(path, "r+b") as handle:
        handle.truncate(raw.rfind(b"\n", 0, end - 1) + 1)
