"""Concurrent clients: single-flight dedup and burst correctness.

The acceptance properties of the serving tentpole:

* N parallel clients issuing overlapping feasibility queries all receive
  **byte-identical** bodies, and the backend runs **exactly one**
  computation per distinct canonical hash (single-flight);
* an over-capacity burst sheds load with 429s, never crashes the server,
  and every accepted request still matches the serial path byte-for-byte.
"""

import threading

from repro.core.placement import Placement
from repro.graphs.builders import cycle_graph, path_graph
from repro.serve import ServeClient, ServeHTTPError
from repro.serve import metrics as sm
from repro.serve.service import compute_payload
from repro.serve.wire import build_network, canonical_json

C6 = {"graph": "cycle", "graph_args": [6]}


def serial_bytes(op, spec, homes):
    """What the serial (no-server) path answers for this query."""
    return canonical_json(
        compute_payload(op, build_network(spec), Placement.of(homes))
    )


def fan_out(n, work):
    """Run ``work(i)`` in n threads; return results, re-raising errors."""
    results = [None] * n
    errors = []

    def runner(i):
        try:
            results[i] = work(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0]
    return results


def test_identical_queries_compute_once(make_server):
    server = make_server()
    n = 8

    def work(i):
        with ServeClient(port=server.port) as client:
            client.feasibility(C6, [0, 3])
            return client.last_body

    bodies = fan_out(n, work)
    assert len(set(bodies)) == 1
    assert bodies[0] == serial_bytes("feasibility", C6, [0, 3])
    # Exactly one backend computation despite 8 concurrent clients; every
    # other tier miss coalesced onto the leader instead of recomputing.
    assert sm.COMPUTES.total() == 1
    assert sm.COALESCED.total() == sm.STORE_MISSES.total() - 1


def test_overlapping_mix_computes_once_per_distinct_hash(make_server):
    server = make_server()
    queries = [
        ("feasibility", C6, [0, 3]),
        ("feasibility", C6, [0, 2]),
        ("feasibility", {"graph": "path", "graph_args": [5]}, [0, 4]),
        ("classify", C6, [0, 3]),
    ]
    expected = {i: serial_bytes(*q) for i, q in enumerate(queries)}
    n = 6

    def work(client_id):
        got = {}
        # Each client walks the queries in a different rotation, so every
        # pair of clients overlaps on every query at some point.
        order = [(client_id + k) % len(queries) for k in range(len(queries))]
        with ServeClient(port=server.port) as client:
            for idx in order:
                op, spec, homes = queries[idx]
                client.query(op, spec, homes)
                got[idx] = client.last_body
        return got

    for got in fan_out(n, work):
        assert got == expected
    assert sm.COMPUTES.total() == len(queries)


def test_over_capacity_burst_is_shed_not_crashed(make_server, wait_until):
    queue_limit = 3
    server = make_server(queue_limit=queue_limit)
    gate = server.hold()
    expected = serial_bytes("classify", C6, [0, 3])
    n = 16
    outcomes = []
    lock = threading.Lock()

    def work(i):
        with ServeClient(port=server.port) as client:
            try:
                client.classify(C6, [0, 3])
                with lock:
                    outcomes.append(("ok", client.last_body))
            except ServeHTTPError as err:
                assert err.status == 429
                assert err.retry_after is not None
                with lock:
                    outcomes.append(("shed", None))

    # A held batch keeps the dispatcher busy, so the burst meets a full
    # queue: the first queue_limit requests wait, every later one is shed.
    plug = threading.Thread(target=work, args=(-1,))
    plug.start()
    gate.wait_calls(1)
    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    gate.wait_queued(queue_limit)
    wait_until(lambda: len(outcomes) == n - queue_limit)
    gate.open()
    for t in threads + [plug]:
        t.join(timeout=30)
    assert len(outcomes) == n + 1  # the burst and the plug
    accepted = [body for kind, body in outcomes if kind == "ok"]
    shed = [kind for kind, _ in outcomes if kind == "shed"]
    assert accepted, "the burst must not starve every request"
    assert len(shed) == n - queue_limit
    assert all(body == expected for body in accepted)
    assert sm.REJECTED.value(reason="queue-full") == len(shed)
    # The server survived: it still answers, and the service is intact.
    with ServeClient(port=server.port) as client:
        health = client.healthz()
        assert health["status"] == "ok"
        client.classify(C6, [0, 3])
        assert client.last_body == expected
