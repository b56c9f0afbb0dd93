"""Span and PhaseClock profiling semantics."""

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SPAN_METRIC, PhaseClock, span


class TestSpan:
    def test_records_one_observation_with_labels(self):
        reg = MetricsRegistry()
        with span("work", registry=reg, instance="t"):
            pass
        state = reg.histogram(SPAN_METRIC).state(span="work", instance="t")
        assert state.count == 1
        assert state.min >= 0.0

    def test_records_even_when_body_raises(self):
        reg = MetricsRegistry()
        try:
            with span("boom", registry=reg):
                raise ValueError("x")
        except ValueError:
            pass
        assert reg.histogram(SPAN_METRIC).state(span="boom").count == 1

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        with span("work", registry=reg):
            pass
        assert reg.snapshot()["metrics"].get(SPAN_METRIC, {"series": []})[
            "series"
        ] == []


class TestPhaseClock:
    def test_enter_closes_previous_phase(self):
        reg = MetricsRegistry()
        clock = PhaseClock(registry=reg, agent="A")
        clock.enter("one")
        clock.enter("two")
        clock.close()
        hist = reg.histogram(SPAN_METRIC)
        assert hist.state(span="one", agent="A").count == 1
        assert hist.state(span="two", agent="A").count == 1
        entries = reg.counter("phase_entries_total")
        assert entries.value(phase="one", agent="A") == 1.0
        assert entries.value(phase="two", agent="A") == 1.0

    def test_close_is_idempotent(self):
        reg = MetricsRegistry()
        clock = PhaseClock(registry=reg)
        clock.enter("only")
        clock.close()
        clock.close()
        assert reg.histogram(SPAN_METRIC).state(span="only").count == 1
        assert clock.phase is None

    def test_disabled_clock_still_tracks_phase_attribute(self):
        reg = MetricsRegistry(enabled=False)
        clock = PhaseClock(registry=reg, agent="A")
        clock.enter("one")
        assert clock.phase == "one"  # tracked even with metrics off
        clock.enter("two")
        assert clock.phase == "two"
        clock.close()
        assert clock.phase is None
        assert reg.snapshot()["metrics"] == {}
