"""Shared fixtures for the repro test suite."""

import random

import pytest

from repro.colors import ColorSpace
from repro.obs import flight, reset_all_collectors
from repro.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_cayley,
    cycle_graph,
    hypercube_cayley,
    path_graph,
    petersen_graph,
)


@pytest.fixture(autouse=True)
def _clean_observability():
    """Reset every registered collector and drop any global flight recorder.

    Keeps tests order-independent: no counter totals or recorded spans
    leak from one test into the next.
    """
    reset_all_collectors()
    flight.disable_flight()
    yield
    reset_all_collectors()
    flight.disable_flight()


@pytest.fixture
def trace_event_builds(monkeypatch):
    """Every :class:`~repro.trace.TraceEvent` the runtime builds, in order.

    The runtime builds its events through the ``repro.trace.events``
    module, so counting there sees each one whatever sink receives it.
    """
    from repro.trace import events

    built = []
    real = events.TraceEvent

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(events, "TraceEvent", counting)
    return built


@pytest.fixture
def space():
    return ColorSpace()


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def p5():
    return path_graph(5)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def k23():
    return complete_bipartite_graph(2, 3)


@pytest.fixture
def petersen():
    return petersen_graph()


@pytest.fixture
def q3():
    return hypercube_cayley(3)


@pytest.fixture
def c6_cayley():
    return cycle_cayley(6)
