"""Shared fixtures for the serve tests: live servers, metric isolation and
a gate that holds a server's batches so tests can build a backlog."""

import asyncio
import threading
import time

import pytest

from repro.serve import CanonicalStore, ElectionServer, ElectionService
from repro.serve import metrics as serve_metrics_module


@pytest.fixture(autouse=True)
def serve_metrics():
    """Each test reads serve counters from zero."""
    serve_metrics_module.reset()
    yield serve_metrics_module
    serve_metrics_module.reset()


def _wait_until(condition, timeout: float = 10.0) -> None:
    """Poll ``condition`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


@pytest.fixture
def wait_until():
    """``wait_until(condition)``: poll a condition, fail after 10 s."""
    return _wait_until


class Gate:
    """Hold every ``answer_batch`` call of a service until :meth:`open`.

    The wrapper replaces ``service.answer_batch`` as an instance attribute,
    so the server's dispatcher and its failure-isolation retry both call
    through it.  While the gate is shut, the batch being answered stays in
    the executor and the requests that arrive meanwhile queue behind it.
    """

    def __init__(self, service: ElectionService):
        self._open = threading.Event()
        #: The queries of each ``answer_batch`` call, in call order.
        self.calls = []
        answer_batch = service.answer_batch

        def gated(queries, *args, **kwargs):
            self.calls.append(list(queries))
            self._open.wait()
            return answer_batch(queries, *args, **kwargs)

        service.answer_batch = gated

    def open(self) -> None:
        self._open.set()

    def wait_calls(self, count: int) -> None:
        """Block until ``count`` batches have reached the gate."""
        _wait_until(lambda: len(self.calls) >= count)

    @staticmethod
    def wait_queued(queries: int) -> None:
        """Block until ``queries`` queries wait in the dispatcher backlog."""
        _wait_until(lambda: serve_metrics_module.QUEUE_DEPTH.value() == queries)


class RunningServer:
    """An :class:`ElectionServer` on its own event-loop thread."""

    def __init__(self, service: ElectionService, **kwargs):
        self.service = service
        self._kwargs = kwargs
        self.port = None
        #: The :class:`ElectionServer` and its event loop, once booted.
        self.http = None
        self.loop = None
        self._ready = threading.Event()
        self._stop_event = None
        self._thread = None
        self._gates = []

    def hold(self) -> Gate:
        """Shut a :class:`Gate` on this server's batches (opened on stop)."""
        gate = Gate(self.service)
        self._gates.append(gate)
        return gate

    def start(self) -> "RunningServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(timeout=10), "server failed to boot"
        return self

    async def _main(self) -> None:
        server = ElectionServer(self.service, port=0, **self._kwargs)
        await server.start()
        self.port = server.port
        self.http = server
        self.loop = asyncio.get_event_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        await self._stop_event.wait()
        await server.stop()

    def stop(self) -> None:
        for gate in self._gates:
            gate.open()  # a held executor thread would block shutdown
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)


@pytest.fixture
def make_server():
    """Factory: boot a server (fresh in-memory service unless given one)."""
    running = []

    def factory(service: ElectionService = None, **kwargs) -> RunningServer:
        if service is None:
            service = ElectionService(store=CanonicalStore(":memory:"))
        server = RunningServer(service, **kwargs).start()
        running.append(server)
        return server

    yield factory
    for server in running:
        server.stop()
        server.service.close()
