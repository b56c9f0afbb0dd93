"""The ``serve`` workload: one closed-loop client against a real server.

A seeded stream of ``feasibility`` / ``elect`` / ``classify`` queries is
sent over HTTP to an :class:`~repro.serve.ElectionServer` (default
settings, file-backed :class:`~repro.serve.CanonicalStore`) running on
its own event-loop thread.  The client sends its next request only after
the previous answer arrived.

One *pass* follows the schedule of the repo's serve bench
(``benchmarks/bench_serve.py``): a cold sweep that sends every instance
once (compute path, store write), :data:`WARM_ROUNDS` warm sweeps, a
restart of the server on the same store file, and :data:`WARM_ROUNDS`
more warm sweeps, so warm hits come from both the memory and the SQLite
tiers.  A warm request repeats the instance's exact query or sends an
isomorphic copy with nodes renumbered and ports shuffled, so
``canonical_hash`` does real work on the warm path.

The pass is a pure function of the seed.  The timed phase repeats it,
each time on a fresh store with cold in-process caches, until
``--seconds`` have passed and at least :data:`MIN_PASSES` times.
Requests are cold or warm by their ``X-Repro-Source`` header
(``compute`` is cold).
"""

from __future__ import annotations

import asyncio
import random
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import Result
from layers import HTTP_SPAN, Tracer

#: Warm sweeps before and after the restart, as in ``bench_serve.py``:
#: ten warm requests for each cold one.
WARM_ROUNDS = 5
#: Fewest passes a timed phase runs: a request's latency is its fastest
#: over the passes.
MIN_PASSES = 3

#: Small instances, ``(graph, args, op)`` (n 4-48).  The seed draws where
#: their homes are; family, size, op and home count are fixed, so seeds
#: cost about the same.
#: Each family gets each op it allows in turn.  ``classify`` is left out
#: where it is known to be pathological (see NOTES.md): Cayley graphs
#: (hypercube, torus) and complete bipartite graphs.  Complete bipartite
#: graphs and hypercubes stay at K2,4 and Q4: on Q5 and K2,5 some homes
#: make ``canonical_hash`` take 0.2-0.5 s on every request.  No two instances are isomorphic (no torus is a
#: hypercube), so each one's first request takes the compute path.
SMALL = (
    ("cycle", (16,), "feasibility"), ("cycle", (28,), "elect"), ("cycle", (40,), "classify"),
    ("cycle", (14,), "feasibility"), ("cycle", (11,), "elect"), ("cycle", (15,), "classify"),
    ("path", (16,), "elect"), ("path", (28,), "classify"), ("path", (40,), "feasibility"),
    ("path", (14,), "elect"), ("path", (11,), "classify"), ("path", (15,), "feasibility"),
    ("grid", (4, 4), "classify"), ("grid", (5, 5), "feasibility"), ("grid", (3, 7), "elect"),
    ("grid", (4, 7), "classify"), ("grid", (2, 7), "feasibility"), ("grid", (2, 9), "elect"),
    ("torus", (3, 4), "feasibility"), ("torus", (4, 5), "elect"), ("torus", (3, 6), "feasibility"),
    ("torus", (3, 7), "elect"), ("torus", (5, 7), "feasibility"), ("torus", (4, 8), "elect"),
    ("hypercube", (3,), "feasibility"), ("hypercube", (4,), "elect"), ("grid", (3, 5), "feasibility"),
    ("complete_bipartite", (2, 4), "feasibility"), ("complete_bipartite", (2, 3), "elect"),
    ("petersen", (), "classify"),
)

#: Large instances (n = 256 and 100).  Their homes do not depend on the
#: seed either: they cost most.  Hypercubes are not here:
#: ``canonical_hash`` of a relabeled Q6 takes about 0.5 s.
LARGE = (
    ("torus", (16, 16), "feasibility"),
    ("grid", (10, 10), "elect"),
)


@dataclass
class Instance:
    """One distinct query of the stream."""

    ident: int
    op: str
    graph: str
    args: Tuple[int, ...]
    homes: Tuple[int, ...]
    num_nodes: int
    edges: List[List[Any]]

    def named_payload(self) -> Dict[str, Any]:
        network = {"graph": self.graph, "graph_args": list(self.args)}
        return {"op": self.op, "network": network, "homes": list(self.homes)}


@dataclass
class Request:
    kind: str  # "new" | "repeat" | "iso"
    instance: int
    op: str
    payload: Dict[str, Any]


def _instance(ident: int, graph: str, args: Tuple[int, ...], op: str, rng: random.Random) -> Instance:
    from repro.serve.wire import build_network, network_payload

    network = build_network({"graph": graph, "graph_args": list(args)})
    n = network.num_nodes
    # Two or three homes, as in the queries of bench_serve.py; the count
    # alternates along the pool, so only the homes' places are drawn.
    homes = tuple(sorted(rng.sample(range(n), 2 + ident % 2)))
    return Instance(
        ident=ident,
        op=op,
        graph=graph,
        args=args,
        homes=homes,
        num_nodes=n,
        edges=network_payload(network)["edges"],
    )


def iso_copy(instance: Instance, rng: random.Random) -> Dict[str, Any]:
    """The query of ``instance`` with nodes renumbered and each node's
    port labels permuted."""
    perm = list(range(instance.num_nodes))
    rng.shuffle(perm)
    ports: Dict[int, List[Any]] = {}
    for u, pu, v, pv in instance.edges:
        ports.setdefault(u, []).append(pu)
        ports.setdefault(v, []).append(pv)
    relabel: Dict[int, Dict[Any, Any]] = {}
    for node, labels in ports.items():
        shuffled = list(labels)
        rng.shuffle(shuffled)
        relabel[node] = dict(zip(labels, shuffled))
    edges = [
        [perm[u], relabel[u][pu], perm[v], relabel[v][pv]]
        for u, pu, v, pv in instance.edges
    ]
    rng.shuffle(edges)
    network = {"num_nodes": instance.num_nodes, "edges": edges}
    homes = sorted(perm[h] for h in instance.homes)
    return {"op": instance.op, "network": network, "homes": homes}


class Stream:
    """The seeded instances and the requests of one pass.

    ``before`` is sent before the restart: the cold sweep, then
    :data:`WARM_ROUNDS` warm sweeps.  ``after`` is sent after it:
    :data:`WARM_ROUNDS` warm sweeps.  Each sweep visits every instance in
    its own seeded order.  A warm request is a repeat or an iso copy with
    even odds: the repo's serve bench sends repeats only, and the even
    split gives both warm paths the same number of samples.
    """

    def __init__(self, seed: int):
        rng = random.Random(f"perfbench-serve:{seed}")
        self.instances: List[Instance] = []
        for graph, args, op in SMALL:
            self.instances.append(_instance(len(self.instances), graph, args, op, rng))
        for k, (graph, args, op) in enumerate(LARGE):
            fixed = random.Random(f"perfbench-large:{k}")
            self.instances.append(_instance(len(self.instances), graph, args, op, fixed))

        def sweep(warm: bool) -> List[Request]:
            order = list(self.instances)
            rng.shuffle(order)
            requests = []
            for inst in order:
                if not warm:
                    requests.append(Request("new", inst.ident, inst.op, inst.named_payload()))
                elif rng.random() < 0.5:
                    requests.append(Request("repeat", inst.ident, inst.op, inst.named_payload()))
                else:
                    requests.append(Request("iso", inst.ident, inst.op, iso_copy(inst, rng)))
            return requests

        self.before: List[Request] = sweep(False)
        for _ in range(WARM_ROUNDS):
            self.before += sweep(True)
        self.after: List[Request] = []
        for _ in range(WARM_ROUNDS):
            self.after += sweep(True)

    @property
    def requests(self) -> List[Request]:
        return self.before + self.after


class ServerThread:
    """An :class:`ElectionServer` with default settings on its own loop."""

    def __init__(self, store_path: Path):
        from repro.serve import CanonicalStore, ElectionService

        self.service = ElectionService(store=CanonicalStore(str(store_path)))
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="perfbench-server")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # reported by start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        from repro.serve import ElectionServer

        server = ElectionServer(self.service, port=0)
        await server.start()
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30) or self._error is not None:
            raise RuntimeError(f"server did not start: {self._error!r}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop")
        self.service.close()


@dataclass
class Sent:
    """One request as the client saw it."""

    request: Request
    status: int
    source: str
    body: bytes
    latency: float


class Session:
    """A server on ``store_path`` and one client, across one restart.

    Each (re)start begins with cold in-process caches, as a fresh server
    process would, and one ``/healthz`` call.
    """

    def __init__(self, store_path: Path, tracer: Optional[Tracer] = None):
        self.store_path = store_path
        self.tracer = tracer
        self.sent: List[Sent] = []
        self.wall = 0.0
        self._boot()

    def _boot(self) -> None:
        from repro.perf import cache
        from repro.serve import ServeClient

        cache.invalidate()
        self.server = ServerThread(self.store_path).start()
        self.client = ServeClient(port=self.server.port)
        self.client.healthz()

    def close(self) -> None:
        self.client.close()
        self.server.stop()

    def send(self, requests: Sequence[Request]) -> None:
        """Send ``requests`` in order, one at a time; add to ``wall``."""
        tracer = self.tracer
        started = time.perf_counter()
        for request in requests:
            frame = tracer.enter(HTTP_SPAN) if tracer is not None else None
            t0 = time.perf_counter()
            status, headers, body = self.client.request("POST", f"/v1/{request.op}", request.payload)
            latency = time.perf_counter() - t0
            if frame is not None:
                tracer.exit(frame)
            self.sent.append(Sent(request, status, headers.get("x-repro-source", ""), body, latency))
        self.wall += time.perf_counter() - started

    def run_pass(self, stream: Stream) -> "Session":
        """Send one pass (restart included), then stop the server."""
        try:
            self.send(stream.before)
            self.close()
            self._boot()
            self.send(stream.after)
        finally:
            self.close()
        return self


def check_parity(sent: Sequence[Sent], instances: Sequence[Instance]) -> List[str]:
    """Every answer equals local ``compute_payload`` canonical JSON of its
    own instance; a new instance is computed, and a warm request is not."""
    from repro.core.placement import Placement
    from repro.serve.service import compute_payload
    from repro.serve.wire import build_network, canonical_json

    local: Dict[int, bytes] = {}
    problems = []
    for item in sent:
        request = item.request
        inst = instances[request.instance]
        where = f"{request.kind} request for instance {inst.ident} ({inst.op} {inst.graph}{list(inst.args)})"
        if not 200 <= item.status < 300:
            continue
        if inst.ident not in local:
            network = build_network({"graph": inst.graph, "graph_args": list(inst.args)})
            local[inst.ident] = canonical_json(
                compute_payload(inst.op, network, Placement.of(list(inst.homes)))
            )
        if item.body != local[inst.ident]:
            problems.append(
                f"{where} homes {list(inst.homes)}: served {item.body[:80]!r} "
                f"!= local {local[inst.ident][:80]!r}"
            )
        if (request.kind == "new") != (item.source == "compute"):
            problems.append(f"{where} was answered from {item.source or 'no source'}")
    return problems


def run_serve(
    stream: Stream, first: Session, seconds: float, trace: bool, workdir: Path, result: Result
) -> None:
    """Passes until ``seconds`` have passed; ``first`` is booted already."""
    phase_start = time.perf_counter()
    passes = [first.run_pass(stream)]
    while len(passes) < MIN_PASSES or time.perf_counter() - phase_start < seconds:
        passes.append(Session(workdir / f"pass{len(passes)}.db").run_pass(stream))
    sent = [item for session in passes for item in session.sent]

    summarize(passes, result)
    started = time.perf_counter()
    for problem in check_parity(sent, stream.instances)[:20]:
        result.fail(problem)
    sources = [[s.source for s in session.sent] for session in passes]
    if any(tiers != sources[0] for tiers in sources[1:]):
        result.fail("passes were answered from different tiers")
    result.meta.update(
        passes=len(passes),
        instances=len(stream.instances),
        requests_per_pass=len(stream.requests),
        parity_s=round(time.perf_counter() - started, 3),
    )

    if trace:
        untraced = statistics.median(session.wall for session in passes)
        tracer = Tracer()
        with tracer:
            traced = Session(workdir / "traced.db", tracer).run_pass(stream)
        if [t.body for t in traced.sent] != [s.body for s in passes[0].sent]:
            result.fail("traced pass answered differently")
        if tracer.nesting_errors:
            result.fail(f"{tracer.nesting_errors} spans closed out of order")
        for name, (value, unit) in tracer.layer_metrics(traced.wall).items():
            result.put(name, value, unit)
        warm = sum(1 for s in traced.sent if s.source != "compute")
        total = len(traced.sent)
        result.put("serve.hit_frac", warm / total, "fraction", f"{warm} of {total} requests")
        result.put("trace.overhead", traced.wall / untraced, "ratio", "traced pass / median untraced pass")


def summarize(passes: Sequence[Session], result: Result) -> None:
    """Rates and latencies.  Every pass sends the same requests, so a
    request's latency is its fastest over the passes (see NOTES.md,
    Noise), and a pass takes the sum of those."""
    first = passes[0].sent
    attempted = sum(len(session.sent) for session in passes)
    failed = sum(1 for session in passes for s in session.sent if not 200 <= s.status < 300)
    latency_ms = [
        min(session.sent[i].latency for session in passes) * 1000.0
        for i in range(len(first))
    ]
    cold = [ms for ms, s in zip(latency_ms, first) if s.source == "compute"]
    warm = [ms for ms, s in zip(latency_ms, first) if s.source != "compute"]
    sources: Dict[str, int] = {}
    for s in first:
        sources[s.source] = sources.get(s.source, 0) + 1
    rate = 1000.0 * len(first) / sum(latency_ms)
    what = f"requests, each the fastest of {len(passes)} passes"
    result.attempted = attempted
    result.failed = failed
    result.put("req_per_s", rate, "1/s", f"{len(first)} requests over their fastest of {len(passes)} passes")
    result.put_latency("cold_ms", cold, f"cold {what}")
    result.put_latency("warm_ms", warm, f"warm {what}")
    result.put("cold_share", sum(cold) / sum(latency_ms), "fraction", "of the client's time per pass")
    result.put("failed_frac", failed / attempted, "fraction", f"{failed} of {attempted} requests")
    result.put("ops_per_s", rate, "1/s", "= req_per_s")
    result.put_latency("op_ms", latency_ms, what)
    result.meta.update(requests=attempted, cold=len(cold), warm=len(warm), sources=sources)
    for tier in ("memory", "sqlite"):
        if not sources.get(tier):
            result.fail(f"no warm hit came from the {tier} tier")
