"""The HTTP layer: endpoints, error mapping, back-pressure, deadlines."""

import socket
import threading
import time

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
    # A coalescing window longer than the deadline forces the timeout
    # deterministically — no slow computation needed.
    server = make_server(batch_window=0.5)
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeHTTPError) as err:
            client.classify(C6, [0, 3], deadline=0.05)
    assert err.value.status == 504
    assert err.value.retry_after is not None
    assert sm.REJECTED.value(reason="deadline") == 1


def test_over_capacity_burst_sheds_with_429(make_server):
    server = make_server(queue_limit=2, batch_window=0.4)
    filler_done = threading.Event()

    def filler():
        with ServeClient(port=server.port) as client:
            client.batch(
                [
                    query_payload("feasibility", C6, [0, 3]),
                    query_payload("feasibility", C6, [0, 2]),
                ]
            )
        filler_done.set()

    thread = threading.Thread(target=filler)
    thread.start()
    time.sleep(0.1)  # filler's two queries now occupy the whole queue
    with ServeClient(port=server.port) as client:
        with pytest.raises(ServeHTTPError) as err:
            client.classify(C6, [0, 3])
    thread.join(timeout=10)
    assert err.value.status == 429
    assert err.value.retry_after == 1.0
    assert sm.REJECTED.value(reason="queue-full") == 1
    assert filler_done.is_set()  # shedding never broke accepted work


def test_bad_query_in_coalesced_batch_fails_only_itself(make_server, tmp_path):
    # A corrupt store row makes one query raise inside answer_batch; the
    # unrelated request that coalesced into the same batch window must
    # still get its 200 (previously the whole batch shared the 500/400).
    store = CanonicalStore(str(tmp_path / "cache.db"))
    poisoned = query_key("feasibility", cycle_graph(6), Placement.of([0, 2]))
    with store._lock, store._conn:
        store._conn.execute(
            "INSERT INTO entries (op, chash, value, created, last_used, hits)"
            " VALUES ('feasibility', ?, '{not json', 0, 0, 0)",
            (poisoned,),
        )
    server = make_server(ElectionService(store=store), batch_window=0.3)
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
    for thread in threads:
        thread.join(timeout=30)
    assert status["good"] == 200  # unharmed by its batch-mate
    assert status["poisoned"] == 400  # the corrupt row's ServeError


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


def test_connection_keep_alive_reuses_the_socket(make_server):
    server = make_server()
    with ServeClient(port=server.port) as client:
        client.feasibility(C6, [0, 3])
        first_conn = client._conn
        client.healthz()
        assert client._conn is first_conn
