"""Span and PhaseClock profiling semantics (both write to the process
registry; ``fresh_registry`` installs an enabled one)."""

from repro.obs.spans import SPAN_METRIC, PhaseClock, span


class TestSpan:
    def test_records_one_observation_with_labels(self, fresh_registry):
        reg = fresh_registry
        with span("work", instance="t"):
            pass
        state = reg.histogram(SPAN_METRIC).state(span="work", instance="t")
        assert state.count == 1
        assert state.min >= 0.0

    def test_records_even_when_body_raises(self, fresh_registry):
        reg = fresh_registry
        try:
            with span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert reg.histogram(SPAN_METRIC).state(span="boom").count == 1

    def test_disabled_registry_records_nothing(self, fresh_registry):
        reg = fresh_registry.disable()
        with span("work"):
            pass
        assert reg.snapshot()["metrics"].get(SPAN_METRIC, {"series": []})[
            "series"
        ] == []


class TestPhaseClock:
    def test_enter_closes_previous_phase(self, fresh_registry):
        reg = fresh_registry
        clock = PhaseClock(agent="A")
        clock.enter("one")
        clock.enter("two")
        clock.close()
        hist = reg.histogram(SPAN_METRIC)
        assert hist.state(span="one", agent="A").count == 1
        assert hist.state(span="two", agent="A").count == 1
        entries = reg.counter("phase_entries_total")
        assert entries.value(phase="one", agent="A") == 1.0
        assert entries.value(phase="two", agent="A") == 1.0

    def test_close_is_idempotent(self, fresh_registry):
        reg = fresh_registry
        clock = PhaseClock()
        clock.enter("only")
        clock.close()
        clock.close()
        assert reg.histogram(SPAN_METRIC).state(span="only").count == 1
        assert clock.phase is None

    def test_disabled_clock_still_tracks_phase_attribute(self, fresh_registry):
        reg = fresh_registry.disable()
        clock = PhaseClock(agent="A")
        clock.enter("one")
        assert clock.phase == "one"  # tracked even with metrics off
        clock.enter("two")
        assert clock.phase == "two"
        clock.close()
        assert clock.phase is None
        assert reg.snapshot()["metrics"] == {}
