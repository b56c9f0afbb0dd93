"""Port order: what each agent is shown of a node's ports, in both engines.

The reference is the formula the runtime used before the port order was
memoized: every view shuffles the node's current ports with a fresh
``random.Random(f"{seed}:{agent}:{node}")``.  The tests log every view an
engine builds, reading the node's ports at that moment, and every view an
agent is handed, and compare each with the reference: on churn-free runs
of both engines, and on edge-churn runs where ports appear and disappear
between two views of one node.
"""

import random
import re
import types
from collections import defaultdict

import pytest

import repro.sim.runtime as runtime_module
from repro.colors import ColorSpace
from repro.core.elect import ElectAgent
from repro.errors import ProtocolError
from repro.fault import ChurnableNetwork, EdgeChurn, FaultPlan
from repro.graphs import cycle_graph, grid_graph, hypercube_cayley
from repro.sim import Agent, RandomScheduler, Simulation
from repro.sim.actions import NodeView
from repro.sim.runtime import PortOrder
from repro.sim.transform import MessagePassingSimulation


def reference_order(seed, agent, node, ports):
    """The unmemoized formula: a fresh seeded shuffle on every view."""
    order = list(ports)
    random.Random(f"{seed}:{agent}:{node}").shuffle(order)
    return tuple(order)


class Recording(Agent):
    """Runs ``inner``'s protocol unchanged, logging every view it receives."""

    def __init__(self, inner, seen):
        super().__init__(inner.color, rng=inner.rng)
        self.inner = inner
        self.seen = seen

    def protocol(self, start):
        self.seen.append(start)
        gen = self.inner.protocol(start)
        value = None
        while True:
            try:
                action = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield action
            if isinstance(value, NodeView):
                self.seen.append(value)


def recording_agents(seed, count, seen):
    space = ColorSpace()
    return [
        Recording(ElectAgent(space.fresh(), rng=random.Random(f"{seed}:{i}")), seen)
        for i in range(count)
    ]


@pytest.fixture
def built(monkeypatch):
    """Both engines' views as built: ``(agent, node, ports then, view)``."""
    log = []
    for engine in (Simulation, MessagePassingSimulation):

        def spy(self, agent_idx, node, entry_port=None, _view=engine._view):
            ports = self.network.ports(node)
            view = _view(self, agent_idx, node, entry_port)
            log.append((agent_idx, node, ports, view))
            return view

        monkeypatch.setattr(engine, "_view", spy)
    return log


@pytest.fixture
def shuffle_seeds(monkeypatch):
    """The seed of every ``random.Random`` the runtime module builds."""
    seeds = []

    class Counting(random.Random):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    monkeypatch.setattr(
        runtime_module, "random", types.SimpleNamespace(Random=Counting)
    )
    return seeds


def assert_views_match_reference(built, seen, port_seed):
    assert built and seen
    for agent, node, ports, view in built:
        assert view.ports == reference_order(port_seed, agent, node, ports)
        assert view.degree == len(ports)
    made = {id(view) for *_, view in built}
    assert all(id(view) in made for view in seen)


Q3_HOMES = [0, 3, 5]


def run_runtime(seed, port_seed, seen):
    agents = recording_agents(seed, len(Q3_HOMES), seen)
    return Simulation(
        hypercube_cayley(3).network,
        list(zip(agents, Q3_HOMES)),
        scheduler=RandomScheduler(seed=seed),
        port_shuffle_seed=port_seed,
    ).run()


def run_message_passing(seed, port_seed, seen):
    agents = recording_agents(seed, len(Q3_HOMES), seen)
    return MessagePassingSimulation(
        hypercube_cayley(3).network,
        list(zip(agents, Q3_HOMES)),
        seed=seed,
        port_shuffle_seed=port_seed,
    ).run()


ENGINES = {"runtime": run_runtime, "message-passing": run_message_passing}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_views_match_reference(engine, seed, built):
    seen = []
    port_seed = 100 + seed
    ENGINES[engine](seed, port_seed, seen)
    assert_views_match_reference(built, seen, port_seed)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_one_shuffle_per_agent_node_pair(engine, built, shuffle_seeds):
    port_seed = 7
    ENGINES[engine](1, port_seed, [])
    pairs = {(agent, node) for agent, node, _, _ in built}
    assert len(built) > len(pairs)  # views repeat, so the memo is used
    assert sorted(shuffle_seeds) == sorted(
        f"{port_seed}:{agent}:{node}" for agent, node in pairs
    )


def test_churned_views_match_reference(built):
    """3x3 grid, homes {0, 4, 7}, churn every 4 steps, at most 6 changes."""
    changed_under_memo = 0
    for seed in range(6):
        seen = []
        agents = recording_agents(seed, 3, seen)
        sim = Simulation(
            grid_graph(3, 3),
            list(zip(agents, [0, 4, 7])),
            scheduler=RandomScheduler(seed=seed),
            port_shuffle_seed=seed,
            fault=FaultPlan((EdgeChurn(period=4, max_events=6, seed=seed),)),
        )
        try:
            sim.run()
        except ProtocolError as exc:
            # ELECT is not built for a changing graph: a port an agent
            # saw can be gone by its Move.
            assert re.fullmatch(r"agent \d+ used missing port .+", str(exc))
        fired = [k for k in sim.fault_state.log.kinds() if k.startswith("churn-")]
        assert 2 <= len(fired) <= 6
        assert_views_match_reference(built, seen, seed)
        tuples = defaultdict(set)
        for agent, node, ports, _ in built:
            tuples[agent, node].add(ports)
        changed_under_memo += sum(len(t) > 1 for t in tuples.values())
        built.clear()
    # Some agent viewed one node before and after churn changed its ports.
    assert changed_under_memo > 0


def test_port_order_follows_in_place_churn():
    net = ChurnableNetwork.from_network(cycle_graph(5))
    order = PortOrder(net, seed=3)
    first = order.of(1, 0)
    assert first == reference_order(3, 1, 0, net.ports(0))
    assert order.of(1, 0) is first
    assert order.of(2, 0) == reference_order(3, 2, 0, net.ports(0))

    net.add_edge(0, ("churn", 1), 2, ("churn", 2))
    grown = order.of(1, 0)
    assert len(grown) == 3
    assert grown == reference_order(3, 1, 0, net.ports(0))

    # Same degree, different labels: the re-check compares the ports,
    # not just how many there are.
    dropped = next(rec for rec in net.edges() if {rec[0], rec[2]} == {0, 1})
    net.remove_edge(dropped)
    assert len(net.ports(0)) == len(first)
    assert set(net.ports(0)) != set(first)
    assert order.of(1, 0) == reference_order(3, 1, 0, net.ports(0))
