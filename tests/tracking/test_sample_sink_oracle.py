"""Byte identity: the rendering sample sink against the dict-building oracle.

:class:`repro.tracking.tracker.JournalSampleSink` writes each ``engine_sample``
line from cached texts through ``EventJournal.append_framed``;
:class:`tests.tracking.sample_sink_oracle.DictSampleSink` builds one dict
per sample and lets the journal's encoder write it.  The same ``(hw,
samples)`` stream through both must leave the same bytes, whatever the
value types.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.unico import Unico, UnicoConfig
from repro.costmodel.engine import MaestroEngine
from repro.costmodel.results import LayerPPA
from repro.hw.ascend import AscendHWConfig
from repro.hw.spatial import DATAFLOWS, SpatialHWConfig
from repro.learned.dataset import build_dataset
from repro.mapping.ascend_mapping import AscendMapping
from repro.mapping.gemm_mapping import (
    LOOP_ORDERS,
    SPATIAL_CHOICES,
    UNROLL_CHOICES,
    GemmMapping,
)
from repro.tracking.journal import EventJournal, read_events, verify_sequence
from repro.tracking.tracker import JournalSampleSink, TEXTS_HELD
from repro.workloads.layers import GemmShape
from tests.tracking.sample_sink_oracle import DictSampleSink

_AWKWARD = '"\\/\n\r\t\x00\x01\x1f\x7fé☃\U0001d11e '


def _as_numpy_or_not(value):
    """An integral value as a Python int or float, or as a NumPy scalar."""
    return st.sampled_from(
        [value, float(value), np.int64(value), np.int32(value), np.float64(value)]
    )


def _ints(low=1, high=4096):
    return st.integers(low, high).flatmap(_as_numpy_or_not)


_measured = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 5e-324]),
    st.integers(-(2**70), 2**70),
)
_text = st.text(alphabet=st.one_of(st.sampled_from(_AWKWARD), st.characters()))

_spatial_hw = st.builds(
    SpatialHWConfig,
    pe_x=_ints(1, 64),
    pe_y=_ints(1, 64),
    l1_bytes=_ints(),
    l2_kb=_ints(),
    noc_bw=_ints(1, 256),
    dataflow=st.sampled_from(DATAFLOWS),
    l1_banks=_ints(1, 8),
    l2_banks=_ints(1, 8),
)
_ascend_hw = st.builds(
    AscendHWConfig,
    **{
        name: _ints(1, 512)
        for name in (
            "l0a_kb l0b_kb l0c_kb l1_kb ub_kb pb_kb icache_kb "
            "l0a_banks l0b_banks l0c_banks cube_m cube_k cube_n"
        ).split()
    },
)
_gemm_mapping = st.builds(
    GemmMapping,
    tile_m=_ints(1, 512),
    tile_n=_ints(1, 512),
    tile_k=_ints(1, 512),
    loop_order=st.sampled_from(LOOP_ORDERS).flatmap(
        lambda order: st.sampled_from([order, list(order)])
    ),
    spatial=st.sampled_from(SPATIAL_CHOICES),
    unroll=st.sampled_from(UNROLL_CHOICES).flatmap(_as_numpy_or_not),
)
_ascend_mapping = st.builds(
    AscendMapping,
    tile_m=_ints(1, 512),
    tile_n=_ints(1, 512),
    tile_k=_ints(1, 512),
    fuse_input=st.booleans(),
    fuse_output=st.booleans(),
)
_shape = st.builds(
    GemmShape,
    m=_ints(),
    n=_ints(),
    k=_ints(),
    reuse_penalty=st.one_of(
        st.just(1),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 1.0, exclude_min=True).map(np.float64),
    ),
)
_result = st.builds(
    LayerPPA,
    latency_s=_measured,
    energy_j=_measured,
    feasible=st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    infeasible_reason=_text,
)


@st.composite
def _streams(draw):
    """Sink calls over a few shared hw, shape and layer-name objects, in
    an arbitrary interleaving — what lockstep rounds hand a sink."""
    hws = draw(st.lists(st.one_of(_spatial_hw, _ascend_hw), min_size=1, max_size=4))
    shapes = draw(st.lists(_shape, min_size=1, max_size=3))
    names = draw(st.lists(_text, min_size=1, max_size=3))
    sample = st.tuples(
        st.sampled_from(names),
        st.one_of(_gemm_mapping, _ascend_mapping),
        st.sampled_from(shapes),
        _result,
    )
    return draw(
        st.lists(
            st.tuples(st.sampled_from(hws), st.lists(sample, max_size=4)),
            min_size=1,
            max_size=6,
        )
    )


def _journal_bytes(sink_class, stream, path: Path, bookends: bool = True) -> bytes:
    with EventJournal(path) as journal:
        sink = sink_class(journal)
        if bookends:
            journal.append("run_start", {"a": 1})
        for hw, samples in stream:
            sink(hw, samples)
        if bookends:
            journal.append("run_end", {})
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(stream=_streams())
def test_same_stream_same_bytes(stream):
    with tempfile.TemporaryDirectory() as scratch:
        expected = _journal_bytes(DictSampleSink, stream, Path(scratch) / "dict.jsonl")
        rendered = _journal_bytes(
            JournalSampleSink, stream, Path(scratch) / "framed.jsonl"
        )
    assert rendered == expected


def _fan_out(*sinks):
    def sink(hw, samples):
        for each in sinks:
            each(hw, samples)

    return sink


def test_a_cosearch_journals_the_same_bytes_and_dataset(
    tiny_network, edge_space, tmp_path
):
    """A lockstep co-search's sample stream, through both sinks at once."""
    engine = MaestroEngine(tiny_network)
    paths = {name: tmp_path / name / "journal.jsonl" for name in ("dict", "framed")}
    with EventJournal(paths["dict"]) as oracle, EventJournal(paths["framed"]) as journal:
        engine.sample_sink = _fan_out(DictSampleSink(oracle), JournalSampleSink(journal))
        Unico(
            edge_space,
            tiny_network,
            engine,
            UnicoConfig(
                batch_size=4, max_iterations=2, max_budget=24, workers=4, eval_batch_size=8
            ),
            power_cap_w=100.0,
            seed=11,
        ).optimize()
    raw = paths["framed"].read_bytes()
    assert raw == paths["dict"].read_bytes()
    assert raw.count(b"\n") == engine.num_queries - engine.num_cache_hits > 100
    expected, got = (build_dataset(path) for path in (paths["dict"], paths["framed"]))
    assert len(got) == len(expected) > 0
    for field in ("x", "latency_s", "energy_j", "feasible"):
        assert np.array_equal(getattr(got, field), getattr(expected, field))


def test_more_configs_than_held_keep_the_cache_bounded(
    tiny_engine, edge_space, tmp_path
):
    configs = [edge_space.sample(seed) for seed in range(TEXTS_HELD + 40)]
    mapping = GemmMapping(4, 8, 4)
    shape = tiny_engine.layer_shapes["gemm"][0]
    result = tiny_engine.evaluate_layer(configs[0], mapping, "gemm")
    stream = [(hw, [("gemm", mapping, shape, result)]) for hw in configs]
    stream += stream[:3]  # configs cleared from the cache render the same
    with EventJournal(tmp_path / "framed.jsonl") as journal:
        sink = JournalSampleSink(journal)
        for hw, samples in stream:
            sink(hw, samples)
            assert len(sink._hw_texts) <= TEXTS_HELD
    assert (tmp_path / "framed.jsonl").read_bytes() == _journal_bytes(
        DictSampleSink, stream, tmp_path / "dict.jsonl", bookends=False
    )
    scan = read_events(tmp_path / "framed.jsonl")
    verify_sequence(scan)
    assert len(scan.events) == len(stream)
