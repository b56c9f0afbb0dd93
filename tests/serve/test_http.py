"""The HTTP layer: endpoints, error mapping, back-pressure, deadlines."""

import asyncio
import socket
import threading

import pytest

from repro.core.placement import Placement
from repro.graphs.builders import cycle_graph
from repro.serve import CanonicalStore, ElectionService, ServeClient, ServeHTTPError
from repro.serve import metrics as sm
from repro.serve.service import compute_payload, query_key
from repro.serve.wire import canonical_json, query_payload

C6 = {"graph": "cycle", "graph_args": [6]}


def test_healthz(make_server):
    server = make_server()
    with ServeClient(port=server.port) as client:
        health = client.healthz()
    assert health["status"] == "ok"
    assert health["service"]["store"]["entries"] == 0


def test_single_query_body_is_the_canonical_local_bytes(make_server):
    server = make_server()
    expected = canonical_json(
        compute_payload("classify", cycle_graph(6), Placement.of([0, 3]))
    )
    with ServeClient(port=server.port) as client:
        client.classify(C6, [0, 3])
        assert client.last_body == expected
        assert client.last_source == "compute"
        client.classify(C6, [0, 3])
        assert client.last_body == expected
        assert client.last_source == "memory"


def test_batch_preserves_order_and_reports_sources(make_server):
    server = make_server()
    queries = [
        query_payload("feasibility", C6, [0, 3]),
        query_payload("elect", C6, [0]),
        query_payload("feasibility", C6, [0, 3]),  # duplicate of [0]
    ]
    with ServeClient(port=server.port) as client:
        results = client.batch(queries)
        sources = client.last_source.split(",")
    assert [r["op"] for r in results] == ["feasibility", "elect", "feasibility"]
    assert canonical_json(results[0]) == canonical_json(results[2])
    assert sources[0] == "compute" and sources[2] == "coalesced"


def test_metrics_exposes_serve_counters(make_server):
    server = make_server()
    with ServeClient(port=server.port) as client:
        client.feasibility(C6, [0, 3])
        text = client.metrics()
    assert 'repro_serve_compute_total{op="feasibility"} 1' in text
    assert "repro_serve_store_misses_total" in text
    assert "repro_serve_requests_total" in text
    # The shared exposition carries the other collectors too.
    assert "repro_cache_" in text


@pytest.mark.parametrize(
    "method,path,body,status",
    [
        ("GET", "/nope", None, 404),
        ("POST", "/v1/vote", {"x": 1}, 404),
        ("POST", "/healthz", None, 405),
        ("GET", "/v1/classify", None, 405),
        ("POST", "/v1/classify", {"op": "elect", "network": C6, "homes": [0]}, 400),
        ("POST", "/v1/classify", {"network": C6, "homes": []}, 400),
        ("POST", "/v1/batch", {"queries": []}, 400),
    ],
)
def test_error_mapping(make_server, method, path, body, status):
    server = make_server()
    with ServeClient(port=server.port) as client:
        got, _, payload = client.request(method, path, body)
    assert got == status
    assert b"error" in payload


def test_refused_computation_is_422_and_the_server_keeps_answering(
    make_server, monkeypatch
):
    from repro.errors import GraphError
    from repro.serve import service as service_module

    def refuse(network, placement):
        raise GraphError("more than limit=1000000 automorphisms")

    monkeypatch.setitem(service_module._PAYLOADS, "classify", refuse)
    server = make_server()
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeHTTPError) as err:
            client.classify(C6, [0, 3])
        assert err.value.status == 422
        assert str(err.value) == (
            "HTTP 422: GraphError: more than limit=1000000 automorphisms"
        )
        assert client.feasibility(C6, [0, 3])["gcd"] == 2
    assert sm.REQUESTS.value(endpoint="/v1/classify", status="422") == 1


def test_unexpected_exception_is_500(make_server, monkeypatch):
    from repro.serve import service as service_module

    def crash(network, placement):
        raise KeyError("boom")

    monkeypatch.setitem(service_module._PAYLOADS, "classify", crash)
    server = make_server()
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeHTTPError) as err:
            client.classify(C6, [0, 3])
    assert err.value.status == 500
    assert "internal error" in str(err.value)


def test_malformed_json_is_400(make_server):
    import http.client

    server = make_server()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request(
        "POST",
        "/v1/classify",
        body=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    assert response.status == 400
    response.read()
    conn.close()


def test_oversized_body_is_rejected(make_server):
    server = make_server(max_body=64)
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeHTTPError) as err:
            client.classify(C6, [0, 3])  # payload far exceeds 64 bytes
    assert err.value.status == 413


def test_deadline_miss_is_504_with_retry_after(make_server):
    # A held batch cannot answer before the deadline, so the timeout is
    # deterministic — no slow computation needed.
    server = make_server()
    server.hold()
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeHTTPError) as err:
            client.classify(C6, [0, 3], deadline=0.05)
    assert err.value.status == 504
    assert err.value.retry_after is not None
    assert sm.REJECTED.value(reason="deadline") == 1


def _send_batch(port, queries, done=None):
    """A client thread posting ``queries`` as one batch."""

    def send():
        with ServeClient(port=port) as client:
            client.batch(queries)
        if done is not None:
            done.set()

    thread = threading.Thread(target=send)
    thread.start()
    return thread


def test_over_capacity_burst_sheds_with_429(make_server):
    server = make_server(queue_limit=2)
    gate = server.hold()
    plug = _send_batch(server.port, [query_payload("feasibility", C6, [0])])
    gate.wait_calls(1)  # the plug's batch runs, held at the gate
    filler_done = threading.Event()
    filler = _send_batch(
        server.port,
        [
            query_payload("feasibility", C6, [0, 3]),
            query_payload("feasibility", C6, [0, 2]),
        ],
        filler_done,
    )
    gate.wait_queued(2)  # filler's two queries now occupy the whole queue
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeHTTPError) as err:
            client.classify(C6, [0, 3])
    gate.open()
    plug.join(timeout=10)
    filler.join(timeout=10)
    assert not plug.is_alive()
    assert err.value.status == 429
    assert err.value.retry_after == 1.0
    assert sm.REJECTED.value(reason="queue-full") == 1
    assert filler_done.is_set()  # shedding never broke accepted work


def test_bad_query_in_coalesced_batch_fails_only_itself(make_server, tmp_path):
    # A corrupt store row makes one query raise inside answer_batch; the
    # unrelated request that coalesced into the same batch must still get
    # its 200 (previously the whole batch shared the 500/400).
    store = CanonicalStore(str(tmp_path / "cache.db"))
    poisoned = query_key("feasibility", cycle_graph(6), Placement.of([0, 2]))
    with store._lock, store._conn:
        store._conn.execute(
            "INSERT INTO entries (op, chash, value, created, last_used, hits)"
            " VALUES ('feasibility', ?, '{not json', 0, 0, 0)",
            (poisoned,),
        )
    server = make_server(ElectionService(store=store))
    gate = server.hold()
    plug = _send_batch(server.port, [query_payload("feasibility", C6, [0])])
    gate.wait_calls(1)  # both requests below queue behind the held plug
    status = {}

    def hit(name, homes):
        with ServeClient(port=server.port) as client:
            try:
                client.feasibility(C6, homes)
                status[name] = 200
            except ServeHTTPError as err:
                status[name] = err.status

    threads = [
        threading.Thread(target=hit, args=("good", [0, 3])),
        threading.Thread(target=hit, args=("poisoned", [0, 2])),
    ]
    for thread in threads:
        thread.start()
    gate.wait_queued(2)
    gate.open()
    for thread in threads + [plug]:
        thread.join(timeout=30)
    assert len(gate.calls[1]) == 2  # both queries reached one batch
    assert status["good"] == 200  # unharmed by its batch-mate
    assert status["poisoned"] == 400  # the corrupt row's ServeError


def test_idle_server_dispatches_at_once_and_a_backlog_forms_one_batch(
    make_server,
):
    # A lone request to an idle server is dispatched alone: the burst
    # below arrives in the very next event-loop callback, before any
    # window could have closed, and still misses its batch.  The burst
    # queues behind the held batch and is answered by one next call.
    server = make_server()
    gate = server.hold()
    net = cycle_graph(6)
    lone = ("feasibility", net, Placement.of([0, 3]))
    burst = [
        ("feasibility", net, Placement.of([0, 2])),
        ("classify", net, Placement.of([0, 3])),
        ("elect", net, Placement.of([0])),
    ]
    futures = []

    def arrive():  # on the server's loop, which is idle
        futures.append(server.http._submit([lone]))
        # Runs after the dispatcher's wake-up, which _submit scheduled.
        server.loop.call_soon(
            lambda: futures.extend(server.http._submit([q]) for q in burst)
        )

    server.loop.call_soon_threadsafe(arrive)
    gate.wait_calls(1)
    assert gate.calls == [[lone]]
    gate.wait_queued(len(burst))
    gate.open()

    async def answers():
        return await asyncio.gather(*futures)

    results = asyncio.run_coroutine_threadsafe(answers(), server.loop).result(30)
    assert gate.calls == [[lone], burst]
    for query, (values, sources) in zip([lone] + burst, results):
        assert values == [compute_payload(*query)]
        assert sources == ["compute"]


def _raw_exchange(port: int, request: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        response = b""
        while b"\r\n\r\n" not in response:
            data = sock.recv(65536)
            if not data:
                break
            response += data
    return response


def test_header_flood_is_rejected_431(make_server):
    server = make_server()
    flood = (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-Flood-%d: x\r\n" % i for i in range(200))
        + b"\r\n"
    )
    response = _raw_exchange(server.port, flood)
    assert response.startswith(b"HTTP/1.1 431")


def test_transfer_encoding_is_rejected_501(make_server):
    # Treating a chunked body as length 0 would desync the connection, so
    # the server refuses what it does not implement.
    server = make_server()
    request = (
        b"POST /v1/classify HTTP/1.1\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"\r\n"
        b"5\r\nhello\r\n0\r\n\r\n"
    )
    response = _raw_exchange(server.port, request)
    assert response.startswith(b"HTTP/1.1 501")


def test_bad_content_length_is_400(make_server):
    server = make_server()
    request = (
        b"POST /v1/classify HTTP/1.1\r\n"
        b"Content-Length: banana\r\n"
        b"\r\n"
    )
    response = _raw_exchange(server.port, request)
    assert response.startswith(b"HTTP/1.1 400")


@pytest.mark.parametrize(
    "line",
    [b"GARBAGE", b"GET /healthz", b"GET /healthz HTTP/1.1 extra"],
    ids=["one-part", "two-parts", "four-parts"],
)
def test_malformed_request_line_is_400(make_server, line):
    server = make_server()
    response = _raw_exchange(server.port, line + b"\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400")
    assert b"Content-Type: application/json" in response
    assert b"Connection: close" in response


def test_connection_keep_alive_reuses_the_socket(make_server):
    server = make_server()
    with ServeClient(port=server.port) as client:
        client.feasibility(C6, [0, 3])
        first_conn = client._conn
        client.healthz()
        assert client._conn is first_conn
