"""The PPA service's row codec, as properties.

Every config and mapping type crosses the wire as ``[type name, *fields
in dataclass order]`` and every layer result as a six-float row or an
``{"infeasible": reason}`` entry.  Whatever Hypothesis draws must come
back through ``json.dumps`` / ``json.loads`` equal, with tuple fields as
tuples, the same cache keys, and — for results — the same bits.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.service import (
    _ROW_TYPES,
    _result_from_wire,
    _result_to_wire,
    decode_object,
    encode_object,
)
from repro.errors import EvaluationError
from repro.hw.ascend import AscendHWConfig
from repro.hw.spatial import DATAFLOWS, SpatialHWConfig
from repro.mapping.ascend_mapping import AscendMapping
from repro.mapping.gemm_mapping import (
    LOOP_ORDERS,
    SPATIAL_CHOICES,
    UNROLL_CHOICES,
    GemmMapping,
)
from repro.ppa import LayerPPA

_SIZE = st.integers(1, 1 << 20)

SPATIAL_HW = st.builds(
    SpatialHWConfig,
    pe_x=_SIZE, pe_y=_SIZE, l1_bytes=_SIZE, l2_kb=_SIZE, noc_bw=_SIZE,
    dataflow=st.sampled_from(DATAFLOWS), l1_banks=_SIZE, l2_banks=_SIZE,
)
ASCEND_HW = st.builds(
    AscendHWConfig,
    **{field.name: _SIZE for field in dataclasses.fields(AscendHWConfig)},
)
GEMM_MAPPING = st.builds(
    GemmMapping,
    tile_m=_SIZE, tile_n=_SIZE, tile_k=_SIZE,
    loop_order=st.sampled_from(LOOP_ORDERS),
    spatial=st.sampled_from(SPATIAL_CHOICES),
    unroll=st.sampled_from(UNROLL_CHOICES),
)
ASCEND_MAPPING = st.builds(
    AscendMapping,
    tile_m=_SIZE, tile_n=_SIZE, tile_k=_SIZE,
    fuse_input=st.booleans(), fuse_output=st.booleans(),
)
WIRE_OBJECTS = st.one_of(SPATIAL_HW, ASCEND_HW, GEMM_MAPPING, ASCEND_MAPPING)


def _over_the_wire(payload):
    return json.loads(json.dumps(payload))


def test_the_table_covers_every_type_that_travels():
    assert set(_ROW_TYPES) == {
        "SpatialHWConfig", "AscendHWConfig", "GemmMapping", "AscendMapping",
    }


@given(WIRE_OBJECTS)
@settings(max_examples=300)
def test_rows_round_trip_through_json(obj):
    row = _over_the_wire(encode_object(obj))
    assert row[0] == type(obj).__name__
    assert row[1:] == [
        list(value) if isinstance(value, tuple) else value
        for value in dataclasses.astuple(obj)
    ]
    decoded = decode_object(row)
    assert decoded == obj
    assert type(decoded) is type(obj)
    # tuple fields come back as tuples and derived caches are rebuilt, so
    # the engine's keys (``hw_key`` sorts ``vars``; ``mapping.key()``) match
    assert vars(decoded) == vars(obj)
    for field in dataclasses.fields(obj):
        assert type(getattr(decoded, field.name)) is type(getattr(obj, field.name))
    if hasattr(obj, "key"):
        assert decoded.key() == obj.key()


def test_precomputed_caches_stay_off_the_wire():
    row = encode_object(GemmMapping(4, 8, 16, loop_order=("k", "m", "n"), unroll=4))
    assert row == ["GemmMapping", 4, 8, 16, ("k", "m", "n"), "mn", 4]


@pytest.mark.parametrize(
    "row",
    [["Mystery", 1], [], "GemmMapping", 42, None, {"type": "GemmMapping"}],
)
def test_anything_but_a_known_row_is_rejected(row):
    with pytest.raises(EvaluationError):
        decode_object(row)


def test_unknown_objects_do_not_encode():
    with pytest.raises(EvaluationError):
        encode_object(object())


_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@given(st.tuples(*[_FLOAT] * 6))
@settings(max_examples=300)
def test_feasible_results_cross_as_the_same_bits(fields):
    result = LayerPPA(*fields[:2], True, *fields[2:])
    entry = _over_the_wire(_result_to_wire(result))
    assert isinstance(entry, list) and len(entry) == 6
    back = _result_from_wire(entry, "layer")
    assert back == result
    assert repr(back) == repr(result)  # -0.0 and 0.0 alike


@given(st.text())
@settings(max_examples=100)
def test_infeasible_results_cross_with_their_reason(reason):
    result = LayerPPA(float("inf"), float("inf"), False, infeasible_reason=reason)
    entry = _over_the_wire(_result_to_wire(result))
    assert entry == {"infeasible": reason}
    back = _result_from_wire(entry, "layer")
    assert back == result
    assert repr(back) == repr(result)


@pytest.mark.parametrize(
    "entry, match",
    [
        ({"error": "no such layer"}, "evaluation failed for conv: no such layer"),
        ([1.0, 2.0], "malformed"),
        ({"ok": True}, "malformed"),
        ("1.0", "malformed"),
    ],
)
def test_error_and_malformed_entries_raise(entry, match):
    with pytest.raises(EvaluationError, match=match):
        _result_from_wire(entry, "conv")
