"""Unit tests for the trace event model and sinks."""

import inspect
import json
import pickle

import pytest

from repro.colors import ColorSpace
from repro.errors import TraceError
from repro.sim import NodeView
from repro.sim.signs import Sign
from repro.trace import (
    MOVE,
    PRE_RUN_STEP,
    READ,
    WAKE,
    WRITE,
    JsonlSink,
    MemorySink,
    NullSink,
    TeeSink,
    TraceEvent,
    TraceHeader,
    dump_trace,
    load_trace,
)


def ev(step=0, kind=READ, agent=0, node=0, **kw):
    return TraceEvent(step=step, kind=kind, agent=agent, node=node, **kw)


def header(**kw):
    base = dict(
        num_nodes=5,
        num_edges=5,
        num_agents=2,
        homes=(0, 1),
        colors=("agent0", "agent1"),
        scheduler="RandomScheduler(seed=0)",
        max_steps=100,
        port_shuffle_seed=0,
    )
    base.update(kw)
    return TraceHeader(**base)


class TestTraceEvent:
    def test_roundtrip_through_dict(self):
        event = ev(
            step=7,
            kind=WRITE,
            agent=1,
            node=3,
            color="agent1",
            sign="status",
            payload=(1, 2),
            detail="x",
        )
        again = TraceEvent.from_dict(event.to_dict())
        assert again == event

    def test_to_dict_omits_defaults(self):
        data = ev(step=2, kind=READ, agent=0, node=4).to_dict()
        assert data == {"step": 2, "kind": "read", "agent": 0, "node": 4}

    def test_non_json_port_labels_serialize_via_repr(self):
        color_port = ColorSpace(prefix="sym").fresh()
        event = ev(kind=MOVE, port=color_port, dest=1, entry=0)
        data = event.to_dict()
        json.dumps(data)  # must be JSON-safe
        assert data["port"] == repr(color_port)

    def test_primary_and_access_flags(self):
        assert ev(kind=READ).is_primary and ev(kind=READ).is_access
        assert ev(kind=MOVE).is_primary and not ev(kind=MOVE).is_access
        assert not ev(kind=WAKE).is_primary
        assert not ev(step=PRE_RUN_STEP, kind=READ).is_primary

    def test_header_roundtrip(self):
        h = header(meta={"protocol": "elect", "seed": 3})
        assert TraceHeader.from_dict(h.to_dict()) == h


#: The per-step records, each with its defaults and with every field set,
#: and its ``repr``, which names every field.
RECORDS = [
    pytest.param(
        lambda: ev(step=0, kind=READ, agent=1, node=2),
        "TraceEvent(step=0, kind='read', agent=1, node=2, color=None, "
        "port=None, dest=None, entry=None, sign=None, payload=None, "
        "result=None, detail='')",
        id="event-defaults",
    ),
    pytest.param(
        lambda: TraceEvent(
            5, WRITE, 1, 3, "agent1", 0, 4, 1, "status", (1, 2), 1, "x"
        ),
        "TraceEvent(step=5, kind='write', agent=1, node=3, color='agent1', "
        "port=0, dest=4, entry=1, sign='status', payload=(1, 2), result=1, "
        "detail='x')",
        id="event-full",
    ),
    pytest.param(
        lambda: NodeView(degree=2, ports=(0, 1), signs=()),
        "NodeView(degree=2, ports=(0, 1), signs=(), entry_port=None)",
        id="view-defaults",
    ),
    pytest.param(
        lambda: NodeView(
            degree=1,
            ports=(0,),
            signs=(Sign(kind="status", payload=(1,)),),
            entry_port=0,
        ),
        "NodeView(degree=1, ports=(0,), signs=(Sign(kind='status', "
        "color=None, payload=(1,)),), entry_port=0)",
        id="view-full",
    ),
]


@pytest.mark.parametrize("build, text", RECORDS)
class TestRecordSemantics:
    """What callers rely on in an event or a view, whatever builds it."""

    def test_fields_cannot_be_assigned(self, build, text):
        record = build()
        fields = inspect.signature(type(record)).parameters
        assert fields
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_equal_fields_give_equal_records_and_hashes(self, build, text):
        first, second = build(), build()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_repr_is_unchanged(self, build, text):
        assert repr(build()) == text

    def test_pickle_round_trips(self, build, text):
        record = build()
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is type(record)


class TestMemorySink:
    def test_unbounded_keeps_everything(self):
        sink = MemorySink()
        for i in range(10):
            sink.emit(ev(step=i))
        assert len(sink) == 10
        assert sink.dropped == 0
        assert [e.step for e in sink.events] == list(range(10))

    def test_ring_buffer_drops_oldest(self):
        sink = MemorySink(capacity=3)
        for i in range(10):
            sink.emit(ev(step=i))
        assert [e.step for e in sink.events] == [7, 8, 9]
        assert sink.dropped == 7

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemorySink(capacity=0)

    def test_annotations_merged_into_header(self):
        sink = MemorySink()
        sink.annotate({"protocol": "elect"})
        sink.annotate({"seed": 9})
        sink.emit_header(header(meta={"pre": 1}))
        assert sink.header.meta == {"pre": 1, "protocol": "elect", "seed": 9}


class TestJsonlSink:
    def test_roundtrip_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlSink(path) as sink:
            sink.emit_header(header())
            sink.emit(ev(step=0, kind=READ))
            sink.emit(ev(step=1, kind=WRITE, sign="mark", payload=(1,)))
        loaded_header, events = load_trace(path)
        assert loaded_header == header()
        assert len(events) == 2
        assert events[1].sign == "mark"
        assert events[1].payload == (1,)

    def test_headerless_stream_loads(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace(path, [ev(step=0), ev(step=1)])
        loaded_header, events = load_trace(path)
        assert loaded_header is None
        assert len(events) == 2

    def test_bad_json_raises(self):
        with pytest.raises(TraceError, match="invalid JSON"):
            load_trace(["{not json"])

    def test_late_header_raises(self):
        lines = [
            json.dumps({"type": "event", "step": 0, "kind": "read",
                        "agent": 0, "node": 0}),
            json.dumps({"type": "header", **header().to_dict()}),
        ]
        with pytest.raises(TraceError, match="first record"):
            load_trace(lines)

    def test_unknown_record_type_raises(self):
        with pytest.raises(TraceError, match="unknown record type"):
            load_trace([json.dumps({"type": "mystery"})])


class TestOtherSinks:
    def test_null_sink_discards_events_keeps_header(self):
        sink = NullSink()
        sink.emit_header(header())
        sink.emit(ev())
        assert sink.header is not None

    def test_null_sink_disables_runtime_tracing_entirely(self):
        # enabled=False tells the runtime to take the untraced fast path:
        # nothing is emitted, not even a header — that is the zero-cost
        # contract the overhead benchmark holds us to.
        from repro import Placement, run_elect
        from repro.graphs import cycle_graph

        assert NullSink.enabled is False
        sink = NullSink()
        outcome = run_elect(cycle_graph(5), Placement.of([0, 1]), trace=sink)
        assert outcome.elected
        assert sink.header is None

    def test_tee_fans_out(self, tmp_path):
        mem1, mem2 = MemorySink(), MemorySink()
        tee = TeeSink(mem1, mem2)
        tee.emit_header(header())
        tee.emit(ev(step=0))
        tee.close()
        assert mem1.events == mem2.events
        assert len(mem1.events) == 1
        assert mem1.header is not None and mem2.header is not None

    def test_tee_requires_children(self):
        with pytest.raises(ValueError):
            TeeSink()
