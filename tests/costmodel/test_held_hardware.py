"""A replica decodes each distinct hardware row once and reuses it.

``PPAServiceServer`` holds the config a hardware row decoded to for
every later request that carries the same row.  Reuse must
change no answer and no error: a sequence of lockstep requests through
one replica answers the same bytes as each request sent to a fresh
replica, malformed rows answer exactly as before the rows were held
(recorded at the commit before reuse), and the map of held rows stays
bounded under one handler thread per connection.
"""

import json
import threading

import pytest

from repro.costmodel.engine import MaestroEngine
from repro.costmodel.maestro import spatial_area_mm2
from repro.costmodel.service import (
    HW_ROWS_HELD,
    PPAServiceServer,
    RemotePPAEngine,
    encode_object,
)
from repro.fleet.pool import ConnectionPool
from repro.mapping.gemm_mapping import GemmMapping

MAPPINGS = [
    GemmMapping(4, 8, 4),
    GemmMapping(8, 16, 8, unroll=2),
    GemmMapping(4, 4, 8, loop_order=("k", "m", "n")),
    GemmMapping(8, 8, 8, spatial="nm"),
]


def _post(pool, payload):
    reply = pool.request(
        "POST", "/evaluate_layers", body=json.dumps(payload).encode()
    )
    return reply.status, reply.body


def _lockstep_requests(configs):
    """Ticks of a lockstep round: each tick asks every live config for the
    next items, and some ticks ask again what an earlier tick asked."""
    rows = [encode_object(hw) for hw in configs]
    layers = ("conv", "gemm", "pw")
    requests = []
    for tick in range(8):
        live = rows[tick % 2 :]  # a trial drops out and comes back
        requests.append({
            "groups": [
                {
                    "hw": row,
                    "items": [
                        [encode_object(MAPPINGS[(tick + index) % len(MAPPINGS)]),
                         layers[(tick + index) % len(layers)]],
                    ],
                }
                for index, row in enumerate(live)
            ]
        })
    # the same config as a shorter row (defaults left out) and with a
    # float where the others carry an int: equal rows, other objects
    short = rows[0][:7]
    floated = [rows[1][0], float(rows[1][1])] + rows[1][2:]
    requests.append({"groups": [
        {"hw": short, "items": [[encode_object(MAPPINGS[3]), "gemm"]]},
        {"hw": floated, "items": [[encode_object(MAPPINGS[2]), "pw"]]},
    ]})
    return requests


def test_one_replica_answers_what_fresh_replicas_answer(tiny_network, edge_space):
    requests = _lockstep_requests([edge_space.sample(seed) for seed in range(3)])
    with PPAServiceServer(MaestroEngine(tiny_network)) as shared:
        pool = ConnectionPool(shared.url)
        through_one = [_post(pool, payload) for payload in requests]
        pool.close()
        held = len(shared._hw_rows)
        hits = shared.num_cache_hits
    assert hits > 0  # later ticks were answered from the cache
    assert held == 5  # three rows, the short one and the floated one
    for payload, answer in zip(requests, through_one):
        with PPAServiceServer(MaestroEngine(tiny_network)) as fresh:
            pool = ConnectionPool(fresh.url)
            assert _post(pool, payload) == answer
            pool.close()
    assert all(status == 200 for status, _body in through_one)


def test_a_float_field_is_not_its_int_twin(tiny_network, sample_hw):
    row = encode_object(sample_hw)
    floated = [row[0], float(row[1])] + row[2:]
    server = PPAServiceServer(MaestroEngine(tiny_network))
    try:
        as_int = server._decoded_hw(row)
        as_float = server._decoded_hw(floated)
        assert server._decoded_hw(list(row)) is as_int  # held
        int_key = server.engine.hw_key(as_int)
        float_key = server.engine.hw_key(as_float)
    finally:
        server._listener.server_close()
    assert type(as_int.pe_x) is int and type(as_float.pe_x) is float
    assert as_float is not as_int
    assert int_key == float_key  # the cache keys them alike, as before


#: malformed hardware rows, second group of a request, and what the
#: replica answered for each before it held decoded rows
MALFORMED = [
    (42, 400, "not a config or mapping row: 42"),
    ([], 400, "not a config or mapping row: []"),
    (["NoSuchType"], 400, "not a config or mapping row: ['NoSuchType']"),
    (None, 400, "not a config or mapping row: None"),
    (
        ["SpatialHWConfig", [8], 8, 4096, 256, 64, "ws", 2, 2],
        500,
        "internal error: TypeError: '<' not supported between instances of "
        "'list' and 'int'",
    ),
    (
        ["SpatialHWConfig", 8, 8, 4096, 256, 64, ["ws"], 2, 2],
        500,
        "internal error: ConfigurationError: dataflow must be one of "
        "('ws', 'os'), got ['ws']",
    ),
    (
        ["SpatialHWConfig", 8, 8, 4096, 256, 64, "ws", 2, 2, "bogus_field"],
        500,
        "internal error: TypeError: SpatialHWConfig.__init__() takes from 7 "
        "to 9 positional arguments but 10 were given",
    ),
]


@pytest.mark.parametrize("row, status, error", MALFORMED)
def test_malformed_rows_answer_as_before(tiny_network, sample_hw, row, status, error):
    item = [encode_object(MAPPINGS[0]), "gemm"]
    payload = {"groups": [
        {"hw": encode_object(sample_hw), "items": [item]},
        {"hw": row, "items": [item]},
    ]}
    with PPAServiceServer(MaestroEngine(tiny_network)) as server:
        pool = ConnectionPool(server.url)
        for _ in range(2):  # the good row is held the second time
            got, body = _post(pool, payload)
            assert (got, json.loads(body)) == (status, {"error": error})
        pool.close()
        # the request failed whole: nothing was asked of the cache
        assert server.num_queries == 0
        assert len(server._cache) == 0


def test_held_rows_stay_bounded_across_handler_threads(tiny_network, edge_space):
    """More distinct rows than the bound, from several connections at
    once (one handler thread each): every answer is the local engine's
    and the map never holds more than the bound."""
    configs = [edge_space.sample(seed) for seed in range(HW_ROWS_HELD + 64)]
    assert len({tuple(encode_object(hw)) for hw in configs}) > HW_ROWS_HELD
    local = MaestroEngine(tiny_network)
    expected = local.evaluate_groups([(hw, [(MAPPINGS[0], "gemm")]) for hw in configs])
    answers = {}
    with PPAServiceServer(MaestroEngine(tiny_network)) as server:
        sizes = []

        def client(offset):
            with RemotePPAEngine(
                tiny_network, server.url, area_fn=spatial_area_mm2
            ) as remote:
                for start in range(offset * 8, len(configs), 32):
                    chunk = configs[start : start + 8]
                    answers[start] = remote.evaluate_groups(
                        [(hw, [(MAPPINGS[0], "gemm")]) for hw in chunk]
                    )
                    sizes.append(len(server._hw_rows))

        threads = [threading.Thread(target=client, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert [group for start in sorted(answers) for group in answers[start]] == expected
    assert max(sizes) <= HW_ROWS_HELD
    assert len(sizes) == len(range(0, len(configs), 8))
