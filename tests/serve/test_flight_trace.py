"""Causal trace propagation through the HTTP serve path.

The acceptance test lives here: one election served over HTTP produces a
single trace id that joins the HTTP request span, the coalescing link,
the worker-side compute span and its schedule-construction span in one
exported, validator-clean Chrome-trace document.
"""

from repro.obs import ELECT_PHASES, flight
from repro.serve import ServeClient
from repro.serve.http import _source_tier
from repro.serve.wire import query_payload

from tests.obs.test_prometheus_format import assert_valid_exposition

Q3 = {"graph": "hypercube", "graph_args": [3]}


def _batch_payload():
    # Two identical elect queries: the second coalesces onto the first.
    query = query_payload("elect", Q3, [0, 3, 5])
    return {"queries": [query, dict(query)]}


class TestTraceJoin:
    def test_one_election_yields_one_joined_valid_trace(self, make_server, tmp_path):
        server = make_server()
        recorder = flight.enable_flight()
        try:
            with ServeClient(port=server.port) as client:
                status, headers, _ = client.request(
                    "POST", "/v1/batch", _batch_payload()
                )
        finally:
            flight.disable_flight()
        assert status == 200
        trace_id = headers.get("x-repro-trace-id")
        assert trace_id and flight.TRACE_ID_PATTERN.match(trace_id)

        spans = recorder.spans()
        mine = [s for s in spans if s.trace_id == trace_id]
        by_name = {}
        for span in mine:
            by_name.setdefault(span.name, []).append(span)

        # The HTTP request span is the trace root.
        (http_span,) = by_name["POST /v1/batch"]
        assert http_span.kind == "http"
        assert http_span.parent_id is None
        assert http_span.attrs["status"] == "200"

        # The compute span is a child of the request, and the election's
        # schedule-construction span hangs off it.
        (compute,) = by_name["serve.compute"]
        assert compute.parent_id == http_span.span_id
        phase_names = {s.name for s in mine if s.parent_id == compute.span_id}
        assert "build_schedule" in phase_names
        # Serve runs no agents, so no span of the trace (compute's subtree
        # included) carries an ELECT phase name.
        assert not {s.name for s in mine} & set(ELECT_PHASES)

        # The duplicate query joined via a zero-duration coalescing link.
        (link,) = by_name["serve.coalesced"]
        assert link.kind == "link"
        assert link.links == ((compute.trace_id, compute.span_id),)
        assert link.parent_id == http_span.span_id

        # The whole recording exports as one validator-clean document.
        doc = flight.to_chrome_trace(spans)
        flight.assert_valid_chrome(doc)
        path = str(tmp_path / "trace.json")
        flight.write_chrome(spans, path)
        flight.assert_valid_chrome(flight.load_chrome(path))

    def test_trace_ids_are_per_request(self, make_server):
        server = make_server()
        flight.enable_flight()
        try:
            with ServeClient(port=server.port) as client:
                ids = []
                for _ in range(2):
                    _, headers, _ = client.request(
                        "POST",
                        "/v1/feasibility",
                        query_payload("feasibility", Q3, [0, 3]),
                    )
                    ids.append(headers.get("x-repro-trace-id"))
        finally:
            flight.disable_flight()
        assert all(ids) and ids[0] != ids[1]

    def test_no_header_and_no_spans_when_disabled(self, make_server):
        server = make_server()
        with ServeClient(port=server.port) as client:
            _, headers, _ = client.request(
                "POST", "/v1/feasibility", query_payload("feasibility", Q3, [0])
            )
        assert "x-repro-trace-id" not in headers

    def test_cross_batch_coalescing_links_to_the_leader(self, make_server):
        import json
        import threading

        server = make_server()
        plug_payload = query_payload("feasibility", Q3, [0, 3])
        with ServeClient(port=server.port) as client:
            client.request("POST", "/v1/feasibility", plug_payload)  # warm
        gate = server.hold()
        recorder = flight.enable_flight()
        try:
            payload = query_payload("elect", Q3, [1, 2, 4])
            results = []

            def post(body):
                with ServeClient(port=server.port) as client:
                    _, _, answer = client.request("POST", f"/v1/{body['op']}", body)
                    results.append(json.loads(answer))

            # A warm plug holds the dispatcher, so both requests below
            # queue behind it and form the next batch together.
            plug = threading.Thread(target=post, args=(plug_payload,))
            plug.start()
            gate.wait_calls(1)
            threads = [
                threading.Thread(target=post, args=(payload,)) for _ in range(2)
            ]
            for t in threads:
                t.start()
            gate.wait_queued(2)
            gate.open()
            for t in threads + [plug]:
                t.join(timeout=30)
        finally:
            flight.disable_flight()
        assert len(results) == 3
        assert len(gate.calls[1]) == 2
        spans = recorder.spans()
        computes = [s for s in spans if s.name == "serve.compute"]
        links = [s for s in spans if s.name == "serve.coalesced"]
        # One compute for the canonical hash, and the duplicate links to it.
        assert len(computes) == 1
        assert len(links) == 1
        assert links[0].links == ((computes[0].trace_id, computes[0].span_id),)


class TestRequestLatencyMetric:
    def test_histogram_labelled_by_endpoint_and_source(self, make_server):
        server = make_server()
        with ServeClient(port=server.port) as client:
            client.elect(Q3, [0, 3, 5])  # compute
            client.elect(Q3, [0, 3, 5])  # memory hit
            text = client.metrics()
        assert 'endpoint="/v1/elect",source="compute"' in text
        assert 'endpoint="/v1/elect",source="memory"' in text
        assert 'endpoint="/metrics",source="-"' not in text  # scrape not yet recorded
        families = assert_valid_exposition(text)
        samples = families["repro_serve_request_seconds"]["samples"]
        counts = {
            (labels["endpoint"], labels["source"]): value
            for name, labels, value in samples
            if name.endswith("_count")
        }
        assert counts[("/v1/elect", "compute")] == 1
        assert counts[("/v1/elect", "memory")] == 1

    def test_source_tier_precedence(self):
        assert _source_tier({}) == "-"
        assert _source_tier({"X-Repro-Source": "memory"}) == "memory"
        assert _source_tier({"X-Repro-Source": "memory,sqlite"}) == "sqlite"
        assert (
            _source_tier({"X-Repro-Source": "sqlite,coalesced,compute"})
            == "compute"
        )
        assert _source_tier({"X-Repro-Source": "coalesced,memory"}) == "coalesced"
