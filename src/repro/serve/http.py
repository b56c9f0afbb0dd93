"""The asyncio HTTP/JSON front end (stdlib only — no web framework).

:class:`ElectionServer` speaks a minimal but correct subset of HTTP/1.1
over ``asyncio.start_server``:

* ``POST /v1/feasibility`` | ``/v1/elect`` | ``/v1/classify`` — one query
  (the ``op`` field is implied by the path);
* ``POST /v1/batch`` — ``{"queries": [...]}``, answered in order;
* ``GET /healthz`` — liveness plus service/store stats;
* ``GET /metrics`` — Prometheus text exposition of **all** registered
  collectors (:func:`repro.obs.registry.collect_snapshot`), so the serve
  counters appear next to the perf-cache and battery metrics.

Request flow: every accepted query lands in a pending list; a dispatcher
task wakes, lets a short *coalescing window* pass so concurrent arrivals
pile up, then drains the whole backlog as **one**
:meth:`~repro.serve.service.ElectionService.answer_batch` call in a worker
thread (the event loop never blocks on refinement).  Back-pressure is a
hard bound on backlogged queries: past ``queue_limit`` the server sheds
with ``429`` + ``Retry-After`` instead of growing the queue.  Each request
carries a deadline (``X-Repro-Deadline`` header, seconds; default
``deadline``) enforced with ``asyncio.wait_for`` → ``504``; the underlying
computation still completes and populates the caches for the retry.

Errors are JSON ``{"error": ...}`` bodies: a malformed query is ``400``
(:class:`~repro.errors.ServeError`), a well-formed one the library refuses
to compute is ``422`` with the error's class name (any other
:class:`~repro.errors.ReproError`, such as an element limit), and only an
unexpected exception is ``500``.

Response bodies are rendered by :func:`~repro.serve.wire.canonical_json`
and never mention which tier answered; provenance travels in the
``X-Repro-Source`` header (``compute`` / ``memory`` / ``sqlite`` /
``coalesced``, comma-joined for batches).
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError, ServeError
from ..obs import flight
from ..obs.exporters import to_prometheus
from ..obs.registry import collect_snapshot
from . import metrics as _m
from .service import ElectionService, Query
from .wire import OPS, canonical_json, parse_batch, parse_query

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Content",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    504: "Gateway Timeout",
}

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"

#: Header-section bounds: past either, the request is refused with 431
#: (the per-line StreamReader limit alone does not cap the total).
_MAX_HEADER_COUNT = 100
_MAX_HEADER_BYTES = 32 * 1024


class _Work:
    """One request's share of the dispatcher backlog.

    ``ctx`` is the request's flight :class:`~repro.obs.flight.TraceContext`
    (``None`` when the recorder is off); the dispatcher ships it alongside
    each of the request's queries because ``run_in_executor`` does not
    propagate context variables.
    """

    __slots__ = ("queries", "future", "ctx")

    def __init__(
        self,
        queries: List[Query],
        future: "asyncio.Future[Any]",
        ctx: Optional["flight.TraceContext"] = None,
    ):
        self.queries = queries
        self.future = future
        self.ctx = ctx


#: ``X-Repro-Source`` tier precedence for the latency histogram label: a
#: batch touching any compute is a compute-priced request.
_TIER_RANK = ("compute", "coalesced", "sqlite", "memory")


def _source_tier(extra: Dict[str, str]) -> str:
    """The most expensive tier named in a response's X-Repro-Source."""
    raw = extra.get("X-Repro-Source", "")
    if not raw:
        return "-"
    tiers = set(raw.split(","))
    for tier in _TIER_RANK:
        if tier in tiers:
            return tier
    return "-"


class ElectionServer:
    """Serve an :class:`ElectionService` over HTTP.

    Parameters
    ----------
    service:
        The (shared, thread-safe) backend.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    queue_limit:
        Maximum backlogged queries before load shedding (429).
    batch_window:
        Seconds the dispatcher waits after waking so that concurrent
        requests coalesce into one batch.
    deadline:
        Default per-request deadline in seconds (clients override with
        the ``X-Repro-Deadline`` header).
    max_body:
        Largest accepted request body, bytes (413 past it).
    """

    def __init__(
        self,
        service: ElectionService,
        host: str = "127.0.0.1",
        port: int = 8421,
        queue_limit: int = 64,
        batch_window: float = 0.005,
        deadline: float = 30.0,
        max_body: int = 1 << 20,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.queue_limit = queue_limit
        self.batch_window = batch_window
        self.deadline = deadline
        self.max_body = max_body
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher_task: Optional["asyncio.Task[None]"] = None
        self._pending: List[_Work] = []
        self._backlog = 0
        self._wake: Optional[asyncio.Event] = None
        self._request_seq = 0  # salt for per-request flight trace ids

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._dispatcher_task = asyncio.ensure_future(self._dispatch_loop())

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher_task is not None:
            self._dispatcher_task.cancel()
            try:
                await self._dispatcher_task
            except asyncio.CancelledError:
                pass
            self._dispatcher_task = None

    async def serve_forever(self) -> None:
        """Start (if needed) and run until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Dispatcher: coalesce the backlog into single batches
    # ------------------------------------------------------------------

    def _submit(
        self,
        queries: List[Query],
        ctx: Optional["flight.TraceContext"] = None,
    ) -> "asyncio.Future[Any]":
        """Enqueue queries; raises ServeError(429) past the queue limit."""
        if self._backlog + len(queries) > self.queue_limit:
            _m.REJECTED.inc(reason="queue-full")
            raise _Reject(429, "queue full, retry later", retry_after=1)
        future: "asyncio.Future[Any]" = asyncio.get_event_loop().create_future()
        self._pending.append(_Work(queries, future, ctx))
        self._backlog += len(queries)
        _m.QUEUE_DEPTH.set(self._backlog)
        assert self._wake is not None
        self._wake.set()
        return future

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        loop = asyncio.get_event_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)  # let arrivals pile up
            batch, self._pending = self._pending, []
            self._backlog = 0
            _m.QUEUE_DEPTH.set(0)
            if not batch:
                continue
            queries = [q for work in batch for q in work.queries]
            contexts = [work.ctx for work in batch for _ in work.queries]
            sources: List[str] = []
            try:
                values = await loop.run_in_executor(
                    None,
                    functools.partial(
                        self.service.answer_batch, queries, sources,
                        contexts=contexts,
                    ),
                )
            except Exception:
                # One bad query (e.g. a corrupt store row) must not fail
                # the unrelated requests that merely coalesced into this
                # batch window: retry each request separately so the error
                # lands only on the request that caused it.
                await self._answer_each(batch, loop)
                continue
            offset = 0
            for work in batch:
                n = len(work.queries)
                if not work.future.done():
                    work.future.set_result(
                        (values[offset : offset + n], sources[offset : offset + n])
                    )
                offset += n

    async def _answer_each(
        self, batch: List[_Work], loop: asyncio.AbstractEventLoop
    ) -> None:
        """Failure-isolation fallback: answer each request on its own.

        Loses cross-request batching for this round only; the service's
        cache tiers and single-flight dedup still apply.
        """
        for work in batch:
            sources: List[str] = []
            try:
                values = await loop.run_in_executor(
                    None,
                    functools.partial(
                        self.service.answer_batch, work.queries, sources,
                        contexts=[work.ctx] * len(work.queries),
                    ),
                )
            except Exception as exc:
                if not work.future.done():
                    work.future.set_exception(exc)
            else:
                if not work.future.done():
                    work.future.set_result((values, sources))

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _Reject as reject:
                    _m.REQUESTS.inc(endpoint="?", status=str(reject.status))
                    self._write_response(
                        writer,
                        reject.status,
                        _JSON,
                        canonical_json({"error": reject.message}),
                        {},
                        keep_alive=False,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                fctx: Optional[flight.TraceContext] = None
                if flight.recording():
                    self._request_seq += 1
                    fctx = flight.TraceContext.mint(
                        "http-request", f"{id(self):x}:{self._request_seq}"
                    )
                wall = time.time()
                started = time.perf_counter()
                status, ctype, payload, extra = await self._route(
                    method, path, headers, body, fctx
                )
                elapsed = time.perf_counter() - started
                _m.REQUESTS.inc(endpoint=path, status=str(status))
                _m.REQUEST_SECONDS.observe(
                    elapsed, endpoint=path, source=_source_tier(extra)
                )
                if fctx is not None:
                    flight.record_for(
                        fctx,
                        f"{method} {path}",
                        kind="http",
                        wall=wall,
                        dur=elapsed,
                        attrs={"endpoint": path, "status": str(status)},
                    )
                    extra = dict(extra)
                    extra["X-Repro-Trace-Id"] = fctx.trace_id
                self._write_response(
                    writer, status, ctype, payload, extra, keep_alive
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown while the connection idled
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise ConnectionError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        header_count = 0
        header_bytes = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            header_count += 1
            header_bytes += len(raw)
            if (
                header_count > _MAX_HEADER_COUNT
                or header_bytes > _MAX_HEADER_BYTES
            ):
                raise _Reject(431, "header section too large")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Not implemented; treating a chunked body as length 0 would
            # desync the connection (its bytes would be parsed as the next
            # pipelined request).
            raise _Reject(
                501, "Transfer-Encoding is not supported; send Content-Length"
            )
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _Reject(400, "malformed Content-Length")
        if length < 0:
            raise _Reject(400, "malformed Content-Length")
        if length > self.max_body:
            raise _Reject(413, f"body exceeds {self.max_body} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        ctype: str,
        payload: bytes,
        extra: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{k}: {v}" for k, v in sorted(extra.items()))
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        fctx: Optional["flight.TraceContext"] = None,
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        try:
            return await self._route_inner(method, path, headers, body, fctx)
        except _Reject as reject:
            extra = {}
            if reject.retry_after is not None:
                extra["Retry-After"] = str(reject.retry_after)
            return (
                reject.status,
                _JSON,
                canonical_json({"error": reject.message}),
                extra,
            )
        except ServeError as exc:
            return 400, _JSON, canonical_json({"error": str(exc)}), {}
        except ReproError as exc:
            # A well-formed query the library refused to compute (e.g. an
            # element limit): classified by its error class, not a 500.
            error = f"{type(exc).__name__}: {exc}"
            return 422, _JSON, canonical_json({"error": error}), {}
        except Exception as exc:  # noqa: BLE001 - the server must not die
            return (
                500,
                _JSON,
                canonical_json({"error": f"internal error: {exc}"}),
                {},
            )

    async def _route_inner(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        fctx: Optional["flight.TraceContext"] = None,
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                raise _Reject(405, "healthz is GET")
            payload = {"status": "ok", "service": self.service.stats()}
            return 200, _JSON, canonical_json(payload), {}
        if path == "/metrics":
            if method != "GET":
                raise _Reject(405, "metrics is GET")
            text = to_prometheus(collect_snapshot())
            return 200, _PROM, text.encode("utf-8"), {}
        if path == "/v1/batch":
            if method != "POST":
                raise _Reject(405, "batch is POST")
            queries = [
                parse_query(q) for q in parse_batch(self._decode_json(body))
            ]
            values, sources = await self._answer(queries, headers, fctx)
            return (
                200,
                _JSON,
                canonical_json({"results": values}),
                {"X-Repro-Source": ",".join(sources)},
            )
        if path.startswith("/v1/"):
            op = path[len("/v1/") :]
            if op not in OPS:
                raise _Reject(404, f"unknown endpoint {path}")
            if method != "POST":
                raise _Reject(405, f"{path} is POST")
            payload = self._decode_json(body)
            if not isinstance(payload, dict):
                raise ServeError("query must be a JSON object")
            declared = payload.get("op", op)
            if declared != op:
                raise ServeError(
                    f"payload op {declared!r} contradicts endpoint {path}"
                )
            query = parse_query({**payload, "op": op})
            values, sources = await self._answer([query], headers, fctx)
            return (
                200,
                _JSON,
                canonical_json(values[0]),
                {"X-Repro-Source": sources[0]},
            )
        raise _Reject(404, f"unknown endpoint {path}")

    async def _answer(
        self,
        queries: List[Query],
        headers: Dict[str, str],
        fctx: Optional["flight.TraceContext"] = None,
    ) -> Tuple[List[Dict[str, Any]], List[str]]:
        deadline = self.deadline
        raw = headers.get("x-repro-deadline")
        if raw:
            try:
                deadline = float(raw)
            except ValueError:
                raise ServeError(f"bad X-Repro-Deadline {raw!r}")
        future = self._submit(queries, fctx)
        try:
            return await asyncio.wait_for(future, timeout=deadline)
        except asyncio.TimeoutError:
            _m.REJECTED.inc(reason="deadline")
            raise _Reject(
                504, f"deadline of {deadline}s exceeded", retry_after=1
            )

    @staticmethod
    def _decode_json(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}")


class _Reject(Exception):
    """An HTTP-level rejection with a status code (and maybe Retry-After)."""

    def __init__(
        self, status: int, message: str, retry_after: Optional[int] = None
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after
