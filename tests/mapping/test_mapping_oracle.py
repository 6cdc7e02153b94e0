"""Each rewritten mapping-search primitive equals its pre-change oracle.

``tests/mapping/mapping_oracle.py`` keeps the three as they were: the
dataclass-generated :class:`GemmMapping` constructor, the linear-scan
``nearest_divisor`` and the layer pick that rebuilt its CDF on every stale
mark.  The properties here hold ``src/`` to them — on every field, on
every error message, and on the pick sequence together with the RNG state
it leaves — so the search they drive stays the same byte for byte.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.engine import MaestroEngine
from repro.errors import MappingError
from repro.hw.spatial import edge_design_space
from repro.mapping.gemm_mapping import LOOP_ORDERS, GemmMapping
from repro.utils.intmath import divisors, nearest_divisor

from tests.mapping import mapping_oracle as oracle
from tests.mapping.test_layer_pick import _InjectedWeights, _network

FIELDS = [field.name for field in dataclasses.fields(GemmMapping)]


# ------------------------------------------------------------ nearest_divisor
def _ties(grid):
    """Targets exactly halfway between two neighbouring divisors."""
    return [(a + b) // 2 for a, b in zip(grid, grid[1:]) if (a + b) % 2 == 0]


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_bisection_equals_scan(data):
    n = data.draw(st.integers(1, 10**6), label="n")
    grid = divisors(n)
    ties = _ties(grid)
    near = st.sampled_from(grid).flatmap(
        lambda d: st.integers(d - 2, d + 2)
    )
    target = data.draw(
        st.one_of(
            st.integers(-(10**7), 2 * 10**6),
            st.sampled_from(grid),
            near,
            st.sampled_from((0, -1, -(10**12), n, n + 1, 2 * n, 10**12)),
            st.sampled_from(ties) if ties else st.just(0),
        ),
        label="target",
    )
    assert nearest_divisor(n, target) == oracle.nearest_divisor(n, target)


def test_bisection_equals_scan_on_every_small_target():
    for n in range(1, 401):
        for target in range(-3, n + 4):
            assert nearest_divisor(n, target) == oracle.nearest_divisor(n, target)


def test_ties_go_low():
    assert nearest_divisor(12, 5) == 4  # 4 and 6 are both one away
    assert nearest_divisor(30, 4) == 3  # 3 and 5 are both one away
    assert nearest_divisor(12, 12) == 12


# -------------------------------------------------------------- GemmMapping
def _ints(low, high):
    plain = st.integers(low, high)
    return st.one_of(plain, plain.map(np.int64), plain.map(np.int32))


_ORDERS = st.one_of(
    st.sampled_from(LOOP_ORDERS),
    st.sampled_from(LOOP_ORDERS).map(list),
    st.lists(st.sampled_from("mnkx"), min_size=2, max_size=4).map(tuple),
    st.lists(st.sampled_from("mnk"), min_size=2, max_size=4),
)
_SPATIAL = st.sampled_from(("mn", "nm", "xy", "", "MN"))
_UNROLL = st.one_of(_ints(-1, 9), st.sampled_from((16, 2.0)))


def _build(cls, args, kwargs):
    """The object, or the ``MappingError`` message it raised."""
    try:
        return cls(*args, **kwargs)
    except MappingError as exc:
        return ("MappingError", str(exc))


def _fields(mapping):
    values = [getattr(mapping, name) for name in FIELDS]
    return tuple((type(value), value) for value in values)


def _assert_same(new, old):
    assert _fields(new) == _fields(old)
    assert new._row == old._row
    assert new.key() == old.key()
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)


@given(
    tiles=st.tuples(_ints(-2, 4096), _ints(-2, 4096), _ints(-2, 4096)),
    loop_order=_ORDERS,
    spatial=_SPATIAL,
    unroll=_UNROLL,
    keywords=st.booleans(),
    new_tile=_ints(-2, 64),
    new_unroll=_UNROLL,
)
@settings(max_examples=600, deadline=None)
def test_constructor_matches_oracle(
    tiles, loop_order, spatial, unroll, keywords, new_tile, new_unroll
):
    if keywords:
        args = ()
        kwargs = dict(zip(("tile_m", "tile_n", "tile_k"), tiles))
        kwargs.update(loop_order=loop_order, spatial=spatial, unroll=unroll)
    else:
        args, kwargs = (*tiles, loop_order, spatial, unroll), {}
    new = _build(GemmMapping, args, kwargs)
    old = _build(oracle.GemmMapping, args, kwargs)
    if isinstance(old, tuple):  # invalid: the same check fails, same message
        assert new == old
        return
    assert isinstance(new, GemmMapping)
    # the oracle stored a list as given; the constructor stores the tuple
    order = tuple(loop_order)
    if keywords:
        kwargs["loop_order"] = order
    else:
        args = (*tiles, order, spatial, unroll)
    old = oracle.GemmMapping(*args, **kwargs)
    _assert_same(new, old)
    assert new == GemmMapping(*args, **kwargs)
    assert hash(new) == hash(GemmMapping(*args, **kwargs))
    with pytest.raises(dataclasses.FrozenInstanceError):
        new.tile_m = 1

    changes = {"tile_m": new_tile, "unroll": new_unroll}
    replaced = _build(dataclasses.replace, (new,), changes)
    expected = _build(dataclasses.replace, (old,), changes)
    if isinstance(expected, tuple):
        assert replaced == expected
    else:
        _assert_same(replaced, expected)

    thawed = pickle.loads(pickle.dumps(new))
    assert thawed == new
    assert vars(thawed) == vars(pickle.loads(pickle.dumps(old)))
    _assert_same(thawed, old)


def test_odd_loop_orders_raise_like_the_oracle():
    for bad in ([["m"], "n", "k"], ("m", "n"), "mn", 5):
        args = (1, 1, 1, bad)
        try:
            expected = _build(oracle.GemmMapping, args, {})
        except TypeError as exc:
            with pytest.raises(TypeError, match=str(exc)):
                GemmMapping(*args)
        else:
            assert _build(GemmMapping, args, {}) == expected


# ------------------------------------------------------------ the layer pick
class _InjectedOracle(oracle.RebuildEveryPick, _InjectedWeights):
    pass


_WEIGHTS = st.one_of(
    st.floats(0.0, 1e6),
    st.sampled_from((0.0, 1e-12, 1.0, float("nan"), float("inf"), -float("inf"))),
    st.floats(allow_nan=True, allow_infinity=True),
)
#: ("set", layer, weight or None = re-mark the unchanged weight) | ("pick", k)
_OPS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 7), st.none() | _WEIGHTS),
    st.tuples(st.just("pick"), st.integers(1, 4)),
)

HW = edge_design_space().sample(0)
_PLATFORMS = {}


def _search(cls, num_layers):
    if num_layers not in _PLATFORMS:
        network = _network(num_layers)
        _PLATFORMS[num_layers] = (network, MaestroEngine(network))
    network, engine = _PLATFORMS[num_layers]
    return cls(network, HW, engine, seed=0)


@given(
    num_layers=st.integers(1, 8),
    initial=st.lists(_WEIGHTS, min_size=8, max_size=8),
    ops=st.lists(_OPS, max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf + -inf weight sums
def test_pick_sequence_matches_rebuild_every_pick(num_layers, initial, ops, seed):
    new = _search(_InjectedWeights, num_layers)
    old = _search(_InjectedOracle, num_layers)
    weights = np.array(initial[:num_layers], dtype=float)
    for search in (new, old):
        search.weights = weights
        search._stale_weights.update(search.layer_names)
        search.rng = np.random.default_rng(seed)
    picks_new, picks_old = [], []
    for op in ops:
        if op[0] == "set":
            _, index, value = op
            index %= num_layers
            if value is not None:
                weights[index] = value
            for search in (new, old):
                search._stale_weights.add(search.layer_names[index])
        else:
            for _ in range(op[1]):
                picks_new.append(new._pick_weighted_layer())
                picks_old.append(old._pick_weighted_layer())
    picks_new.append(new._pick_weighted_layer())
    picks_old.append(old._pick_weighted_layer())
    assert picks_new == picks_old
    assert new.rng.bit_generator.state == old.rng.bit_generator.state


def test_an_unmoved_weight_keeps_the_cdf():
    search = _search(_InjectedWeights, 4)
    search.weights = np.array([1.0, 2.0, 3.0, 4.0])
    search._stale_weights.update(search.layer_names)
    search._pick_weighted_layer()
    cdf = search._pick_cdf
    search._stale_weights.update(search.layer_names)  # marked, not moved
    search._pick_weighted_layer()
    assert search._pick_cdf is cdf
    search.weights[2] = 5.0
    search._stale_weights.add("g2")
    search._pick_weighted_layer()
    assert search._pick_cdf is not cdf
    before_nan = search._pick_cdf
    search.weights[1] = float("nan")  # a nan is a move, every time
    for _ in range(2):
        search._stale_weights.add("g1")
        assert search._pick_weighted_layer() is None
    search.weights[1] = 2.0
    search._stale_weights.add("g1")
    search._pick_weighted_layer()
    assert search._pick_cdf is not before_nan
    assert np.array_equal(search._pick_cdf, before_nan)
