"""The flight recorder: causal trace propagation across execution surfaces.

One election can cross five boundaries — a battery loop, a
:class:`~repro.perf.parallel.ParallelBatteryRunner` worker process, the
``repro.serve`` HTTP service, a fault campaign, an adversary fuzz sweep —
and until now nothing tied those fragments together.  This module mints a
**trace context** (a 128-bit trace id plus 64-bit span ids, deterministic
from the run seed) at every entry point and threads it through all of
them, so "where did this election go?" has one answer: a single trace id
joining the HTTP span, the coalescing link, the worker-side compute span
and the ELECT phase spans.

Model (OpenTelemetry-shaped, stdlib-only):

* :class:`TraceContext` — ``(trace_id, span_id, parent_id)`` plus a child
  counter.  ``mint(name, seed)`` derives the ids from SHA-256 over the
  seed, so the same run produces the same trace id in every process.
* :class:`FlightSpan` — one recorded span: ids, name, kind, wall-clock
  start, duration, pid/tid, attributes, and *links* to spans in other
  traces (how a coalesced follower points at the leader's compute span).
* :class:`FlightRecorder` — a bounded, thread-safe span sink.  The
  process-global recorder is ``None`` unless :func:`enable_flight` (or
  ``REPRO_FLIGHT=1``) installed one, so the disabled path costs one
  context-variable read — the same <5% contract as the metrics registry
  (measured in ``benchmarks/bench_flight_overhead.py``).
* Exporters — Chrome trace-event / Perfetto-compatible JSON
  (:func:`to_chrome_trace`, with flow events for links) and a compact
  JSONL span stream (:func:`write_jsonl`), plus a structural validator
  (:func:`validate_chrome`) so CI asserts exported files are well-formed
  instead of eyeballing them.

Worker propagation: :func:`map_with_flight` wraps a picklable battery
function so each item runs under its shipped context inside the worker,
captures the spans it produced there (:func:`capture` installs a local
recorder), and ships them back with the result for the parent to merge.
Results stay byte-identical to a plain ``runner.map`` for any worker
count — only the span stream is added.

This module is a leaf: stdlib plus :mod:`repro.errors` only, so every
layer can join the flight record without import cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import MetricsError

#: Grammar of the wire-format ids (W3C traceparent sizes).
TRACE_ID_PATTERN = re.compile(r"^[0-9a-f]{32}$")
SPAN_ID_PATTERN = re.compile(r"^[0-9a-f]{16}$")

#: A link target: ``(trace_id, span_id)`` of the span being pointed at.
SpanRef = Tuple[str, str]


def _digest(payload: str, hexdigits: int) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:hexdigits]


def child_span_id(parent_span_id: str, name: str, index: int) -> str:
    """The deterministic span id of ``parent``'s ``index``-th ``name`` child.

    Pure, so a parent process can *predict* the id a worker will assign
    (the serve layer links coalesced followers to the leader's compute
    span before the leader has even started computing).
    """
    return _digest(f"{parent_span_id}|{name}|{index}", 16)


class TraceContext:
    """One position in a trace: ids plus a deterministic child counter.

    Contexts are cheap value-ish objects.  The child counter is the only
    mutable state; pickling drops it (a worker restarts its children at
    index 0, which stays collision-free because ids include the span
    name and every shipped context is derived per item).
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "_children")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self._children = 0

    @classmethod
    def mint(cls, name: str, seed: Any) -> "TraceContext":
        """A fresh root context, deterministic in ``(name, seed)``."""
        trace_id = _digest(f"repro-flight|{name}|{seed}", 32)
        return cls(trace_id, _digest(f"{trace_id}|root", 16))

    def child(self, name: str, index: Optional[int] = None) -> "TraceContext":
        """Derive a child context.

        With ``index=None`` the context's own counter assigns the next
        slot (the common nested-span case); an explicit ``index`` is a
        *pure* derivation — no counter touched — for when two sides must
        agree on the id (serve leader/follower rendezvous).
        """
        if index is None:
            index = self._children
            self._children += 1
        return TraceContext(
            self.trace_id, child_span_id(self.span_id, name, index), self.span_id
        )

    def ref(self) -> SpanRef:
        return (self.trace_id, self.span_id)

    def __reduce__(self):
        return (TraceContext, (self.trace_id, self.span_id, self.parent_id))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceContext({self.trace_id[:8]}…/{self.span_id})"


@dataclass
class FlightSpan:
    """One recorded span (JSON-safe via :meth:`to_dict`)."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    kind: str
    #: Wall-clock start, seconds since the epoch.
    ts: float
    #: Duration in seconds (monotonic-clock measured).
    dur: float
    pid: int
    tid: int
    attrs: Dict[str, str] = field(default_factory=dict)
    links: Tuple[SpanRef, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.links:
            out["links"] = [list(ref) for ref in self.links]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlightSpan":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            kind=data.get("kind", "span"),
            ts=float(data["ts"]),
            dur=float(data["dur"]),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            attrs=dict(data.get("attrs", {})),
            links=tuple(
                (str(t), str(s)) for t, s in data.get("links", [])
            ),
        )


class FlightRecorder:
    """A bounded, thread-safe span sink.

    ``max_spans`` caps memory on long recordings; spans past the cap are
    counted in :attr:`dropped` instead of silently vanishing.
    """

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: List[FlightSpan] = []
        self._lock = threading.Lock()

    def record(self, span: FlightSpan) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    def extend(self, spans: Iterable[FlightSpan]) -> None:
        for span in spans:
            self.record(span)

    def spans(self) -> List[FlightSpan]:
        with self._lock:
            return list(self._spans)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlightRecorder({len(self)} spans, dropped={self.dropped})"


# ---------------------------------------------------------------------------
# Process-global state
# ---------------------------------------------------------------------------

#: The global recorder; ``None`` keeps every hook on its early-return path.
_global_recorder: Optional[FlightRecorder] = (
    FlightRecorder() if os.environ.get("REPRO_FLIGHT", "") not in ("", "0") else None
)

#: Worker/test-local override (:func:`capture`); wins over the global.
_local_recorder: "ContextVar[Optional[FlightRecorder]]" = ContextVar(
    "repro_flight_local_recorder", default=None
)

#: The current position in a trace (set by the span context managers).
_current: "ContextVar[Optional[TraceContext]]" = ContextVar(
    "repro_flight_context", default=None
)


def enable_flight(recorder: Optional[FlightRecorder] = None) -> FlightRecorder:
    """Install (and return) the process-global recorder."""
    global _global_recorder
    _global_recorder = recorder if recorder is not None else FlightRecorder()
    return _global_recorder


def disable_flight() -> Optional[FlightRecorder]:
    """Remove the global recorder; returns it so callers can export."""
    global _global_recorder
    recorder, _global_recorder = _global_recorder, None
    return recorder


def flight_recorder() -> Optional[FlightRecorder]:
    """The active recorder (local capture override, then global)."""
    local = _local_recorder.get()
    return local if local is not None else _global_recorder


def recording() -> bool:
    return flight_recorder() is not None


def active() -> Optional[FlightRecorder]:
    """The recorder, but only when a trace context is current.

    This is the guard instrumentation hooks (:func:`repro.obs.spans.span`,
    :class:`~repro.obs.spans.PhaseClock`) use: spans outside any trace are
    not recorded, so enabling the recorder never floods the file with
    orphans from unrelated code paths.
    """
    if _current.get() is None:
        return None
    return flight_recorder()


@contextmanager
def use_context(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make ``ctx`` the current trace position for the enclosed block."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


# ---------------------------------------------------------------------------
# Recording primitives
# ---------------------------------------------------------------------------


def _as_attrs(attrs: Optional[Mapping[str, Any]]) -> Dict[str, str]:
    if not attrs:
        return {}
    return {str(k): str(v) for k, v in attrs.items()}


def record_for(
    ctx: TraceContext,
    name: str,
    kind: str = "span",
    wall: Optional[float] = None,
    dur: float = 0.0,
    attrs: Optional[Mapping[str, Any]] = None,
    links: Sequence[SpanRef] = (),
) -> None:
    """Record one finished span *for* ``ctx`` (ids straight from it)."""
    rec = flight_recorder()
    if rec is None:
        return
    rec.record(
        FlightSpan(
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=ctx.parent_id,
            name=name,
            kind=kind,
            ts=time.time() if wall is None else wall,
            dur=dur,
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFFFFFF,
            attrs=_as_attrs(attrs),
            links=tuple(links),
        )
    )


def observe(
    name: str,
    wall: float,
    dur: float,
    kind: str = "span",
    attrs: Optional[Mapping[str, Any]] = None,
    links: Sequence[SpanRef] = (),
) -> None:
    """Record an already-measured span as a child of the current context.

    The hook :func:`repro.obs.spans.span` and :class:`PhaseClock` call
    after timing a block themselves.  No-ops without a recorder or a
    current context.
    """
    ctx = _current.get()
    if ctx is None or flight_recorder() is None:
        return
    record_for(ctx.child(name), name, kind, wall, dur, attrs, links)


def link(
    name: str,
    target: SpanRef,
    parent: Optional[TraceContext] = None,
    index: Optional[int] = None,
    **attrs: Any,
) -> None:
    """Record a zero-duration link span pointing at ``target``.

    How a coalesced serve follower joins its own trace to the leader's
    compute span in another trace.
    """
    rec = flight_recorder()
    if rec is None:
        return
    parent = parent if parent is not None else _current.get()
    if parent is None:
        return
    ctx = parent.child(name, index=index)
    record_for(ctx, name, "link", None, 0.0, attrs, links=(target,))


@contextmanager
def root_span(
    ctx: TraceContext,
    name: str,
    kind: str = "span",
    links: Sequence[SpanRef] = (),
    **attrs: Any,
) -> Iterator[TraceContext]:
    """Run the block *as* ``ctx``: its span is recorded with ctx's ids."""
    wall = time.time()
    start = time.perf_counter()
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)
        record_for(
            ctx, name, kind, wall, time.perf_counter() - start, attrs, links
        )


@contextmanager
def flight_span(
    name: str,
    kind: str = "span",
    links: Sequence[SpanRef] = (),
    **attrs: Any,
) -> Iterator[Optional[TraceContext]]:
    """Open a child span under the current context for the enclosed block.

    Yields the child's :class:`TraceContext` (``None`` when not recording
    or outside any trace — the block still runs, nothing is recorded).
    """
    if flight_recorder() is None:
        yield None
        return
    parent = _current.get()
    if parent is None:
        yield None
        return
    with root_span(parent.child(name), name, kind, links, **attrs) as ctx:
        yield ctx


@contextmanager
def entrypoint_span(
    name: str, mint_seed: Any, **attrs: Any
) -> Iterator[Optional[TraceContext]]:
    """The entry-point hook: join the current trace or mint a new one.

    Called at the top of ``run_election`` / ``evaluate_battery`` — nested
    entry points (an election inside a campaign case) become child spans
    of the enclosing trace instead of starting fresh ones.  ``mint_seed``
    feeds :meth:`TraceContext.mint` when a fresh trace is needed (it is a
    positional-style parameter so ``attrs`` may carry a ``seed`` label).
    Yields the span's context (``None`` when no recorder is installed).
    """
    if flight_recorder() is None:
        yield None
        return
    if _current.get() is not None:
        with flight_span(name, **attrs) as ctx:
            yield ctx
        return
    with root_span(TraceContext.mint(name, mint_seed), name, **attrs) as ctx:
        yield ctx


# ---------------------------------------------------------------------------
# Worker propagation
# ---------------------------------------------------------------------------


@contextmanager
def capture(max_spans: int = 200_000) -> Iterator[FlightRecorder]:
    """Divert recording to a fresh local recorder for the enclosed block.

    The worker half of :func:`map_with_flight`: spans recorded in the
    block land in the yielded recorder (only), ready to ship back to the
    parent.  Context-variable scoped, so concurrent threads capture
    independently.
    """
    local = FlightRecorder(max_spans=max_spans)
    token = _local_recorder.set(local)
    try:
        yield local
    finally:
        _local_recorder.reset(token)


class RecordedCall:
    """Picklable wrapper: run ``fn(item)`` under a shipped context.

    Each mapped item arrives as ``(ctx, item)``; the call runs inside a
    span recorded *as* ``ctx`` (so the parent knows the span id in
    advance) with worker-side sub-spans captured and returned alongside
    the result as ``(result, span_dicts)``.
    """

    __slots__ = ("fn", "name", "attrs_of")

    def __init__(
        self,
        fn: Callable[[Any], Any],
        name: str,
        attrs_of: Optional[Callable[[Any], Mapping[str, Any]]] = None,
    ):
        self.fn = fn
        self.name = name
        self.attrs_of = attrs_of

    def __call__(self, pair: Tuple[TraceContext, Any]) -> Tuple[Any, Tuple[Dict[str, Any], ...]]:
        ctx, item = pair
        attrs = self.attrs_of(item) if self.attrs_of is not None else {}
        with capture() as local:
            with root_span(ctx, self.name, **dict(attrs)):
                result = self.fn(item)
        return result, tuple(span.to_dict() for span in local.spans())


def map_with_flight(
    runner: Any,
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    name: str,
    contexts: Sequence[TraceContext],
    attrs_of: Optional[Callable[[Any], Mapping[str, Any]]] = None,
) -> List[Any]:
    """``runner.map`` with per-item trace contexts and span shipping.

    Every item runs under its context (one span per item, named
    ``name``), worker-side spans are merged into the caller's recorder,
    and the returned results are byte-identical to ``runner.map(fn,
    items)`` for any worker count.  Falls back to a plain map when no
    recorder is installed.
    """
    items = list(items)
    rec = flight_recorder()
    if rec is None:
        return runner.map(fn, items)
    if len(contexts) != len(items):
        raise MetricsError(
            f"map_with_flight: {len(contexts)} contexts for {len(items)} items"
        )
    wrapped = runner.map(RecordedCall(fn, name, attrs_of), list(zip(contexts, items)))
    results: List[Any] = []
    for result, span_dicts in wrapped:
        rec.extend(FlightSpan.from_dict(d) for d in span_dicts)
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# Exporters: Chrome trace-event JSON (Perfetto-compatible) and JSONL
# ---------------------------------------------------------------------------


def to_chrome_trace(spans: Sequence[FlightSpan]) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event document (Perfetto loads it).

    Spans become complete (``ph="X"``) events carrying their trace ids in
    ``args``; links become flow-event pairs (``ph="s"`` at the target,
    ``ph="f"`` at the linking span) so the coalescing arrow renders in
    the viewer.  Deterministic ordering: events sorted by ``(ts, span
    id)`` so identical recordings export byte-identically.
    """
    by_id: Dict[str, FlightSpan] = {s.span_id: s for s in spans}
    events: List[Dict[str, Any]] = []
    for pid in sorted({s.pid for s in spans}):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro"},
            }
        )
    flow_sources: set = set()
    for span in spans:
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        args.update(span.attrs)
        if span.links:
            args["links"] = [f"{t}/{s}" for t, s in span.links]
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.kind,
                "ts": span.ts * 1e6,
                "dur": max(span.dur, 1e-7) * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
        for _ltrace, lspan in span.links:
            target = by_id.get(lspan)
            if target is None:
                continue  # validator flags the dangling link on the span
            flow_id = f"{lspan}->{span.span_id}"
            if flow_id not in flow_sources:
                flow_sources.add(flow_id)
                events.append(
                    {
                        "ph": "s",
                        "name": "coalesce",
                        "cat": "flow",
                        "id": flow_id,
                        "ts": target.ts * 1e6,
                        "pid": target.pid,
                        "tid": target.tid,
                    }
                )
                events.append(
                    {
                        "ph": "f",
                        "bp": "e",
                        "name": "coalesce",
                        "cat": "flow",
                        "id": flow_id,
                        "ts": max(span.ts, target.ts + target.dur) * 1e6,
                        "pid": span.pid,
                        "tid": span.tid,
                    }
                )
    events.sort(key=lambda e: (e.get("ts", 0.0), str(e.get("id", "")), e.get("ph", ""), str(e.get("args", {}).get("span_id", ""))))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(spans: Sequence[FlightSpan], path: str) -> Dict[str, Any]:
    doc = to_chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def write_jsonl(spans: Sequence[FlightSpan], path: str) -> None:
    """The compact span sink: one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict(), sort_keys=True))
            fh.write("\n")


def read_jsonl(path: str) -> List[FlightSpan]:
    spans: List[FlightSpan] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(FlightSpan.from_dict(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise MetricsError(f"{path}:{lineno}: bad span record: {exc}")
    return spans


def load_chrome(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise MetricsError(f"{path}: not a Chrome trace (no 'traceEvents')")
    return data


def validate_chrome(doc: Mapping[str, Any]) -> List[str]:
    """Structural validation of a Chrome trace-event document.

    Returns a list of problems (empty = valid): event shape, id grammar,
    span-id uniqueness, parent references resolving within the file, and
    flow events pairing up.  This is what ``python -m repro.obs flight
    assert-valid`` and the acceptance tests run, so "Perfetto-valid" is a
    checked property, not a claim.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    span_ids: Dict[str, int] = {}
    parents: List[Tuple[int, str]] = []
    link_refs: List[Tuple[int, str]] = []
    flows: Dict[str, Dict[str, int]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"event {i}: missing ph")
            continue
        for field_name in ("pid", "tid"):
            if not isinstance(event.get(field_name), int):
                problems.append(f"event {i}: missing integer {field_name}")
        if ph == "M":
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i}: missing name")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
        if ph in ("s", "f"):
            flow_id = event.get("id")
            if not isinstance(flow_id, (str, int)):
                problems.append(f"event {i}: flow event without id")
            else:
                flows.setdefault(str(flow_id), {})[ph] = (
                    flows.setdefault(str(flow_id), {}).get(ph, 0) + 1
                )
            continue
        if ph != "X":
            problems.append(f"event {i}: unsupported ph {ph!r}")
            continue
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"event {i}: bad dur {dur!r}")
        args = event.get("args")
        if not isinstance(args, dict):
            problems.append(f"event {i}: X event without args")
            continue
        trace_id = args.get("trace_id")
        span_id = args.get("span_id")
        if not isinstance(trace_id, str) or not TRACE_ID_PATTERN.match(trace_id):
            problems.append(f"event {i}: bad trace_id {trace_id!r}")
        if not isinstance(span_id, str) or not SPAN_ID_PATTERN.match(span_id):
            problems.append(f"event {i}: bad span_id {span_id!r}")
            continue
        if span_id in span_ids:
            problems.append(
                f"event {i}: span_id {span_id} duplicates event {span_ids[span_id]}"
            )
        span_ids[span_id] = i
        parent_id = args.get("parent_id")
        if parent_id is not None:
            if not isinstance(parent_id, str) or not SPAN_ID_PATTERN.match(parent_id):
                problems.append(f"event {i}: bad parent_id {parent_id!r}")
            else:
                parents.append((i, parent_id))
        for ref in args.get("links", []):
            if not isinstance(ref, str) or "/" not in ref:
                problems.append(f"event {i}: bad link {ref!r}")
            else:
                link_refs.append((i, ref.rsplit("/", 1)[1]))
    for i, parent_id in parents:
        if parent_id not in span_ids:
            problems.append(
                f"event {i}: parent span {parent_id} not present in file"
            )
    for i, lspan in link_refs:
        if lspan not in span_ids:
            problems.append(f"event {i}: linked span {lspan} not present in file")
    for flow_id, sides in sorted(flows.items()):
        if set(sides) != {"s", "f"}:
            problems.append(
                f"flow {flow_id}: unpaired (has {sorted(sides)} of ['f', 's'])"
            )
    return problems


def assert_valid_chrome(doc: Mapping[str, Any]) -> None:
    problems = validate_chrome(doc)
    if problems:
        head = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise MetricsError(f"invalid Chrome trace: {head}{more}")


def summarize(spans: Sequence[FlightSpan]) -> Dict[str, Any]:
    """Per-trace and per-name roll-up for ``flight summary``."""
    traces: Dict[str, int] = {}
    names: Dict[str, Dict[str, float]] = {}
    links = 0
    for span in spans:
        traces[span.trace_id] = traces.get(span.trace_id, 0) + 1
        slot = names.setdefault(span.name, {"count": 0, "seconds": 0.0})
        slot["count"] += 1
        slot["seconds"] += span.dur
        links += len(span.links)
    return {
        "spans": len(spans),
        "traces": len(traces),
        "links": links,
        "processes": len({s.pid for s in spans}),
        "by_name": {
            name: {"count": int(v["count"]), "seconds": round(v["seconds"], 6)}
            for name, v in sorted(names.items())
        },
        "largest_trace": max(traces.values()) if traces else 0,
    }
