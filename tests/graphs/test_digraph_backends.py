"""The two digraph refinement backends, and the size rule between them.

``digraph_refinement``, the canonical search's refiner and the
surroundings arc builder run the Python reference below
``DIGRAPH_KERNEL_MIN_NODES`` nodes and :class:`DigraphKernel` from there
on.  Canonical keys, canonical node orders and therefore every
``canonical_hash`` stay put only if both backends return the *same class
numbers*, not merely the same partition: the search picks its target cell
and orders its leaves by those numbers.  This file pins that numbering on
random digraphs (including negative and gapped colorings and the search's
individualized id ``n``), pins the whole search on instances either side
of the crossover, and pins which backend each site runs at the crossover.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    hypercube_cayley,
)
from repro.graphs import canonical, surroundings
from repro.graphs.canonical import (
    Digraph,
    _digraph_refinement_python,
    _search,
    digraph_refinement,
    underlying_digraph,
)
from repro.perf import uncached
from repro.perf.kernel import DIGRAPH_KERNEL_MIN_NODES, DigraphKernel

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def digraphs_with_colorings(draw, max_nodes=9):
    """A random digraph and an initial coloring of it.

    Arc sets range from none (all nodes isolated) over sparse and dense
    ones to symmetric ones (every arc in a 2-cycle); loops are allowed.
    Colors are drawn with gaps and may be negative; the search's
    individualized id ``n`` is set on one node half of the time.
    """
    n = draw(st.integers(0, max_nodes))
    rng = random.Random(draw(st.integers(0, 2**30)))
    density = draw(st.sampled_from((0.0, 0.15, 0.4, 0.8)))
    arcs = [
        (u, v) for u in range(n) for v in range(n) if rng.random() < density
    ]
    if draw(st.booleans()):
        arcs += [(v, u) for (u, v) in arcs]
    colors = [rng.choice((-2, 0, 1, 3, 7)) for _ in range(n)]
    if n and draw(st.booleans()):
        colors[rng.randrange(n)] = n
    return Digraph.build(n, arcs), colors


@SETTINGS
@given(digraphs_with_colorings())
def test_backends_return_the_same_class_numbers(case):
    g, colors = case
    assert DigraphKernel(g).refine(colors) == _digraph_refinement_python(g, colors)


def bicolored(network, homes):
    return underlying_digraph(
        network, [1 if v in homes else 0 for v in network.nodes()]
    )


BELOW, AT = DIGRAPH_KERNEL_MIN_NODES - 1, DIGRAPH_KERNEL_MIN_NODES

#: Instances either side of the crossover, each with two homes.
CROSSOVER_INSTANCES = {
    "C32": bicolored(cycle_graph(32), {0, 10}),
    "C64": bicolored(cycle_graph(64), {0, 21}),
    f"C{BELOW}": bicolored(cycle_graph(BELOW), {0, BELOW // 3}),
    f"C{AT}": bicolored(cycle_graph(AT), {0, AT // 3}),
    "C128": bicolored(cycle_graph(128), {0, 42}),
    "G8x8": bicolored(grid_graph(8, 8), {0, 9}),
    "G12x12": bicolored(grid_graph(12, 12), {0, 13}),
    "Q5": bicolored(hypercube_cayley(5).network, {14, 17}),
    "Q6": bicolored(hypercube_cayley(6).network, {0, 3}),
    "K5,5": bicolored(complete_bipartite_graph(5, 5), {0, 5}),
}


@pytest.mark.parametrize("name", sorted(CROSSOVER_INSTANCES))
def test_search_is_the_same_with_either_refiner(name):
    g = CROSSOVER_INSTANCES[name]
    on_numpy = _search(g, DigraphKernel(g).refine)
    on_python = _search(g, lambda classes: _digraph_refinement_python(g, classes))
    assert on_numpy == on_python
    with uncached():
        assert canonical.canonical_search(g) == on_numpy


# ----------------------------------------------------------------------
# The size rule at each of its three sites
# ----------------------------------------------------------------------


@pytest.fixture
def backend_log(monkeypatch):
    """Record which backend each digraph refinement runs, by node count."""
    log = []
    real_python = canonical._digraph_refinement_python

    class RecordingKernel(DigraphKernel):
        def refine(self, initial):
            log.append(("numpy", self.n))
            return super().refine(initial)

    def recording_python(g, initial):
        log.append(("python", g.num_nodes))
        return real_python(g, initial)

    monkeypatch.setattr(canonical, "DigraphKernel", RecordingKernel)
    monkeypatch.setattr(canonical, "_digraph_refinement_python", recording_python)
    return log


@pytest.mark.parametrize(
    "n,backend", [(BELOW, "python"), (AT, "numpy")], ids=["below", "at"]
)
def test_one_shot_refinement_follows_the_size_rule(backend_log, n, backend):
    g = bicolored(cycle_graph(n), {0})
    ids = digraph_refinement(g, list(g.colors))
    assert backend_log == [(backend, n)]
    assert ids == _digraph_refinement_python(g, list(g.colors))


@pytest.mark.parametrize(
    "n,backend", [(BELOW, "python"), (AT, "numpy")], ids=["below", "at"]
)
def test_search_refiner_follows_the_size_rule(backend_log, n, backend):
    g = bicolored(cycle_graph(n), {0, n // 3})
    with uncached():
        canonical.canonical_search(g)
    assert backend_log
    assert set(backend_log) == {(backend, n)}


@pytest.mark.parametrize(
    "n,on_numpy", [(BELOW, False), (AT, True)], ids=["below", "at"]
)
def test_surrounding_arcs_follow_the_size_rule(monkeypatch, n, on_numpy):
    calls = []
    real = surroundings.surrounding_arcs_numpy

    def recording(network, u):
        calls.append(network.num_nodes)
        return real(network, u)

    monkeypatch.setattr(surroundings, "surrounding_arcs_numpy", recording)
    net = cycle_graph(n)
    with uncached():
        s = surroundings.surrounding(net, 0)
    assert calls == ([n] if on_numpy else [])
    # Either way it is Definition 3.1's digraph: u alone has in-degree 0.
    assert surroundings.in_degree_zero_nodes(s) == [0]
