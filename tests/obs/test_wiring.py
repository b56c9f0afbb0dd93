"""Runtime wiring: registry totals must agree with the trace summary."""

import random
from collections import Counter

import pytest

from repro.colors import ColorSpace
from repro.core import Placement, run_elect
from repro.core.elect import ElectAgent
from repro.errors import StepBudgetExceeded
from repro.graphs import hypercube_cayley
from repro.obs import flight, instrument_whiteboards
from repro.obs.budget import ACCESSES, MOVES
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SPAN_METRIC
from repro.sim import RandomScheduler, Simulation
from repro.trace import MemorySink, record_run, summarize


@pytest.fixture
def instrumented_run():
    """One recorded ELECT run with an enabled registry wired end to end."""
    registry = MetricsRegistry(enabled=True)
    sink = MemorySink()
    outcome, sink = record_run(
        "hypercube", [3], [0, 3, 5], protocol="elect", seed=11,
        sink=sink, metrics=registry,
    )
    summary = summarize(sink.events, header=sink.header)
    return registry, outcome, summary


class TestMoveParity:
    def test_registry_equals_budget_equals_trace(self, instrumented_run):
        registry, outcome, summary = instrumented_run
        assert outcome.elected
        counter_total = registry.counter("agent_moves_total").total()
        budget_used = registry.gauge("theorem31_used").value(resource=MOVES)
        assert counter_total == budget_used == summary.total_moves

    def test_access_accounting_matches_trace(self, instrumented_run):
        registry, _, summary = instrumented_run
        assert (
            registry.counter("agent_accesses_total").total()
            == registry.gauge("theorem31_used").value(resource=ACCESSES)
            == summary.total_accesses
        )

    def test_phase_spans_cover_the_protocol(self, instrumented_run):
        registry, _, _ = instrumented_run
        spans = {
            series["labels"]["span"]
            for series in registry.histogram(SPAN_METRIC).snapshot_series()
        }
        assert "map_drawing" in spans and "compute_order" in spans

    def test_steps_counter_matches_trace_steps(self, instrumented_run):
        registry, _, summary = instrumented_run
        assert registry.counter("scheduler_steps_total").total() == summary.steps


class TestRunEndTotals:
    def test_a_run_that_raises_publishes_its_records(self):
        registry = MetricsRegistry(enabled=True)
        space = ColorSpace()
        agents = [
            ElectAgent(space.fresh(), rng=random.Random(f"11:{i}"))
            for i in range(3)
        ]
        sim = Simulation(
            hypercube_cayley(3).network,
            list(zip(agents, [0, 3, 5])),
            scheduler=RandomScheduler(seed=11),
            max_steps=120,
            metrics=registry,
        )
        with pytest.raises(StepBudgetExceeded):
            sim.run()
        moves = registry.counter("agent_moves_total")
        accesses = registry.counter("agent_accesses_total")
        for rec in sim.records:
            assert moves.value(agent=rec.agent.color.name) == rec.moves
            assert accesses.value(agent=rec.agent.color.name) == rec.accesses
        used = registry.gauge("theorem31_used")
        assert used.value(resource=MOVES) == sum(
            rec.moves for rec in sim.records
        ) == 85
        assert used.value(resource=ACCESSES) == sum(
            rec.accesses for rec in sim.records
        ) == 29
        assert registry.counter("scheduler_steps_total").total() == 120


class TestFlightPhases:
    def test_metrics_off_run_records_every_final_phase(self):
        recorder = flight.enable_flight()
        outcome = run_elect(
            hypercube_cayley(3).network,
            Placement.of([0, 3, 5]),
            seed=11,
            metrics=MetricsRegistry(enabled=False),
        )
        assert outcome.elected
        phases = Counter(
            span.name for span in recorder.spans() if span.kind == "phase"
        )
        assert phases["announce"] == 1
        assert phases["await"] == 2


class TestDisabledPath:
    def test_disabled_registry_stays_empty(self):
        registry = MetricsRegistry(enabled=False)
        net = hypercube_cayley(3).network
        outcome = run_elect(
            net,
            Placement.of([0, 3, 5]),
            scheduler=RandomScheduler(seed=11),
            seed=11,
            metrics=registry,
        )
        assert outcome.elected
        assert registry.snapshot()["metrics"] == {}

    def test_disabled_run_matches_enabled_run_outcome(self):
        outcomes = []
        for registry in (MetricsRegistry(False), MetricsRegistry(True)):
            net = hypercube_cayley(3).network
            outcomes.append(
                run_elect(
                    net,
                    Placement.of([0, 3, 5]),
                    scheduler=RandomScheduler(seed=4),
                    seed=4,
                    metrics=registry,
                )
            )
        assert outcomes[0].elected == outcomes[1].elected
        assert outcomes[0].total_moves == outcomes[1].total_moves
        assert outcomes[0].steps == outcomes[1].steps


class TestWhiteboardHook:
    def test_hook_counts_operations_and_restores(self):
        registry = MetricsRegistry(enabled=True)
        restore = instrument_whiteboards(registry)
        try:
            net = hypercube_cayley(3).network
            run_elect(
                net,
                Placement.of([0, 3, 5]),
                scheduler=RandomScheduler(seed=2),
                seed=2,
            )
        finally:
            restore()
        ops = registry.counter("whiteboard_ops_total")
        assert ops.value(op="append") > 0
        assert ops.value(op="snapshot") > 0
        before = ops.total()
        # Hook restored: further board traffic is not counted.
        net = hypercube_cayley(2).network
        run_elect(net, Placement.of([0, 1]), seed=3)
        assert ops.total() == before
