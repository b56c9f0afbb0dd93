"""Live-trace verification: the running protocol follows its schedule.

The schedule tables (Figure 4's Euclid arithmetic) are verified statically
elsewhere; these tests check the *executed* protocol emits exactly the
scheduled phase/round sequence — sizes included — via the LOG events the
runtime sends to a trace sink.
"""

import random

import pytest

from repro.colors import ColorSpace
from repro.core import Placement, build_schedule, elect_prediction
from repro.core.elect import ElectAgent
from repro.graphs import complete_bipartite_graph, cycle_graph, path_graph
from repro.sim import Simulation
from repro.trace import MemorySink
from repro.trace.events import LOG


def run_with_trace(net, homes, seed=0):
    placement = Placement.of(homes)
    colors = placement.fresh_colors()
    agents = [
        ElectAgent(c, rng=random.Random(i)) for i, c in enumerate(colors)
    ]
    sink = MemorySink()
    sim = Simulation(net, list(zip(agents, placement.homes)), trace=sink)
    sim.run()
    return sink, elect_prediction(net, placement)


def events_of(sink, agent_idx, kind):
    return [
        event.payload
        for event in sink.events
        if event.kind == LOG and event.agent == agent_idx and event.detail == kind
    ]


class TestLiveAgentRounds:
    def test_k37_live_rounds_match_euclid_table(self):
        net = complete_bipartite_graph(3, 7)
        sink, prediction = run_with_trace(net, list(range(10)), seed=2)
        spec = prediction.schedule.phases[0]
        expected = [
            (spec.phase_id, i + 1, r.searchers, r.waiters)
            for i, r in enumerate(spec.agent_rounds)
        ]
        # Every *participating* agent that survived to round k logged the
        # scheduled sizes; check the union of logged rounds equals the
        # schedule (each round logged by at least one agent).
        seen = set()
        for idx in range(10):
            for (phase, rnd, s, w, _role) in events_of(sink, idx, "agent-round"):
                seen.add((phase, rnd, s, w))
        assert seen == set(expected)

    def test_k23_all_participants_log_consistent_sizes(self):
        net = complete_bipartite_graph(2, 3)
        sink, prediction = run_with_trace(net, list(range(5)), seed=1)
        spec = prediction.schedule.phases[0]
        table = {
            (spec.phase_id, i + 1): (r.searchers, r.waiters)
            for i, r in enumerate(spec.agent_rounds)
        }
        for idx in range(5):
            for (phase, rnd, s, w, _role) in events_of(sink, idx, "agent-round"):
                assert table[(phase, rnd)] == (s, w)

    def test_searcher_and_waiter_roles_partition_each_round(self):
        net = complete_bipartite_graph(2, 3)
        sink, prediction = run_with_trace(net, list(range(5)), seed=3)
        spec = prediction.schedule.phases[0]
        first_round = (spec.phase_id, 1)
        roles = []
        for idx in range(5):
            for (phase, rnd, s, w, role) in events_of(sink, idx, "agent-round"):
                if (phase, rnd) == first_round:
                    roles.append(role)
        # Round 1 of K23: 2 searchers + 3 waiters, all participating.
        assert sorted(roles) == [0, 0, 0, 1, 1]


class TestLiveNodeRounds:
    def test_node_rounds_follow_schedule(self):
        net = path_graph(7)
        homes = [0, 6]  # symmetric pair: C1 = {0,6}; node phases reduce
        sink, prediction = run_with_trace(net, homes, seed=1)
        node_specs = [p for p in prediction.schedule.phases if p.kind == "node"]
        expected = set()
        for spec in node_specs:
            for i, r in enumerate(spec.node_rounds):
                expected.add((spec.phase_id, i + 1, r.agents, r.nodes, r.case))
        seen = set()
        for idx in range(2):
            seen.update(events_of(sink, idx, "node-round"))
        assert seen == expected

    def test_phase_start_events_match_schedule(self):
        net = path_graph(7)
        sink, prediction = run_with_trace(net, [0, 6], seed=1)
        expected = {
            (p.phase_id, 0 if p.kind == "agent" else 1, p.incoming)
            for p in prediction.schedule.phases
        }
        seen = set()
        for idx in range(2):
            seen.update(events_of(sink, idx, "phase-start"))
        assert seen == expected


class TestTraceAbsentByDefault:
    def test_no_trace_without_opt_in(self):
        net = cycle_graph(5)
        placement = Placement.of([0, 1])
        colors = placement.fresh_colors()
        agents = [
            ElectAgent(c, rng=random.Random(i)) for i, c in enumerate(colors)
        ]
        sim = Simulation(net, list(zip(agents, placement.homes)))
        result = sim.run()
        # The sink is the runtime's one trace channel: without one nothing
        # is recorded, and the result carries no event list of its own.
        assert sim._sink is None
        assert not hasattr(result, "trace")
