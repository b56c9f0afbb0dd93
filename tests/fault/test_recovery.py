"""Crash recovery: checkpoint restarts, determinism, replay fidelity."""

import random
from collections import Counter

from repro.colors import ColorSpace
from repro.core.elect import ElectAgent
from repro.core.placement import Placement
from repro.core.runner import run_elect
from repro.fault import CrashAtStep, FaultPlan, Watchdog
from repro.graphs import path_graph
from repro.obs import flight
from repro.obs.registry import MetricsRegistry
from repro.sim import Simulation
from repro.sim.scheduler import RandomScheduler
from repro.trace import (
    RESTART,
    MemorySink,
    ReplayScheduler,
    audit_trace,
)
from repro.trace.invariants import THEOREM31_CONSTANT


def supervised_sim(seed=0, crash_after=10, max_restarts=2, trace=None,
                   scheduler=None, metrics=None):
    """Two agents on the (asymmetric, electable) path P_5; agent 0 crashes."""
    net = path_graph(5)
    space = ColorSpace()
    agents = [
        ElectAgent(space.fresh(), rng=random.Random(f"{seed}:{i}"))
        for i in range(2)
    ]
    plan = FaultPlan((CrashAtStep(agent=0, after_actions=crash_after),))
    return Simulation(
        net,
        list(zip(agents, [0, 2])),
        scheduler=scheduler or RandomScheduler(seed=seed),
        fault=plan,
        watchdog=Watchdog(timeout=60, max_restarts=max_restarts, seed=seed),
        trace=trace,
        metrics=metrics,
    )


class TestCheckpointRestart:
    def test_restart_reaches_same_leader_as_fault_free_run(self):
        # Single agent on an electable instance: the outcome is scheduler
        # independent (it must elect itself), so the recovered run and the
        # fault-free run are directly comparable.
        net = path_graph(5)
        placement = Placement.of([1])
        baseline = run_elect(net, placement, seed=3)
        recovered = run_elect(
            net,
            placement,
            seed=3,
            fault=FaultPlan((CrashAtStep(agent=0, after_actions=8),)),
            watchdog=Watchdog(timeout=40, max_restarts=2),
        )
        assert baseline.elected and recovered.elected
        assert [r.verdict for r in recovered.reports] == [
            r.verdict for r in baseline.reports
        ]

    def test_two_agent_recovery_elects_and_counts_restarts(self):
        sim = supervised_sim(seed=1)
        result = sim.run()
        assert result.restarts[0] >= 1
        from repro.core.result import aggregate

        outcome = aggregate(
            result.results,
            total_moves=result.total_moves,
            total_accesses=result.total_accesses,
            steps=result.steps,
        )
        assert outcome.elected

    def test_restart_events_pass_the_trace_audit(self):
        sink = MemorySink()
        sim = supervised_sim(seed=1, trace=sink)
        result = sim.run()
        assert any(ev.kind == RESTART for ev in sink.events)
        # Recovered moves still count against (a restart-scaled) Theorem 3.1
        # budget: the audit battery, including restart discipline, is green.
        reports = audit_trace(
            sink.events,
            header=sink.header,
            moves=result.moves,
            accesses=result.accesses,
            steps=result.steps,
            theorem31_constant=THEOREM31_CONSTANT * 3,
        )
        assert all(rep.ok for rep in reports), [str(r) for r in reports]

    def test_restarted_agent_logs_checkpoint_reentry(self):
        sink = MemorySink()
        sim = supervised_sim(seed=1, trace=sink)
        sim.run()
        logs = [ev for ev in sink.events if ev.kind == "log"]
        assert any(ev.detail == "restart-from-checkpoint" for ev in logs)


class TestDeterminism:
    def test_identical_seeds_give_identical_faulted_runs(self):
        def run_once():
            sink = MemorySink()
            result = supervised_sim(seed=5, trace=sink).run()
            return result, sink

        r1, s1 = run_once()
        r2, s2 = run_once()
        assert r1.restarts == r2.restarts
        assert r1.stall_events == r2.stall_events
        assert [e.to_dict() for e in s1.events] == [
            e.to_dict() for e in s2.events
        ]

    def test_faulted_run_replays_byte_identically(self):
        sink = MemorySink()
        result = supervised_sim(seed=7, trace=sink).run()

        replay_sink = MemorySink()
        replayed = supervised_sim(
            seed=7,
            trace=replay_sink,
            scheduler=ReplayScheduler.from_events(sink.events),
        ).run()

        assert [e.to_dict() for e in sink.events] == [
            e.to_dict() for e in replay_sink.events
        ]
        assert replayed.restarts == result.restarts
        assert [type(r).__name__ for r in replayed.results] == [
            type(r).__name__ for r in result.results
        ]


class TestObservability:
    def test_watchdog_counters_match_the_result(self):
        registry = MetricsRegistry(enabled=True)
        sim = supervised_sim(seed=1, metrics=registry)
        result = sim.run()
        labels = [rec.agent.color.name for rec in sim.records]
        restarts = registry.counter("watchdog_restarts_total")
        stalls = registry.counter("watchdog_stalls_total")
        stalled = Counter(agent for _, agent, _ in result.stall_events)
        assert result.restarts == [1, 0]
        assert [restarts.value(agent=lb) for lb in labels] == result.restarts
        assert [stalls.value(agent=lb) for lb in labels] == [
            stalled[i] for i in range(len(labels))
        ] == [1, 0]

    def test_restart_closes_the_interrupted_phase_without_metrics(self):
        # The default registry is disabled; the flight recorder alone must
        # still see the phase a restart cut short and each final phase.
        recorder = flight.enable_flight()
        with flight.entrypoint_span("supervised", 1):
            result = supervised_sim(seed=1).run()
        assert result.restarts == [1, 0]
        phases = Counter(
            span.name for span in recorder.spans() if span.kind == "phase"
        )
        assert phases == {
            "map_drawing": 3, "compute_order": 2, "announce": 1, "await": 1,
        }
