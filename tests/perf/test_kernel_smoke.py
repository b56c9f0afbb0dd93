"""Smoke tests for the flat-array refinement kernel.

Fast tier-1 coverage of the backend surface: numpy-vs-worklist partition
parity on one pointed instance per benchmark family, the dense-limit
delegation guard, and the surroundings fast path.  The exhaustive parity
properties live in ``tests/graphs/test_refinement_parity.py`` and
``tests/graphs/test_digraph_backends.py``; this file is the cheap canary
that runs on every CI job.
"""

import pytest

from repro.graphs import surroundings
from repro.graphs.builders import cycle_graph, petersen_graph, random_connected_graph
from repro.graphs.cayley import hypercube_cayley, torus_cayley
from repro.graphs.views import _refine_worklist
from repro.perf import flat_network, refine_numpy, uncached
from repro.perf import kernel as kernel_mod

FAMILIES = [
    ("cycle-16", lambda: cycle_graph(16)),
    ("hypercube-8", lambda: hypercube_cayley(3).network),
    ("torus-3x4", lambda: torus_cayley([3, 4]).network),
    ("petersen", petersen_graph),
    ("gnp-9", lambda: random_connected_graph(9, 0.35)),
]


def partition_of(ids):
    buckets = {}
    for node, cid in enumerate(ids):
        buckets.setdefault(cid, []).append(node)
    return sorted(tuple(members) for members in buckets.values())


@pytest.mark.parametrize("name,build", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_numpy_matches_worklist_per_family(name, build):
    net = build()
    colors = [1] + [0] * (net.num_nodes - 1)  # pointed: the hard case
    with uncached():
        numpy_ids = refine_numpy(net, colors)
        worklist_ids = _refine_worklist(net, colors)
    assert partition_of(numpy_ids) == partition_of(worklist_ids)


def test_dense_limit_delegates_to_worklist(monkeypatch):
    """Hub-dominated guard: over the cell budget, numpy defers (same ids)."""
    net = petersen_graph()
    colors = [1] + [0] * (net.num_nodes - 1)
    with uncached():
        direct = refine_numpy(net, colors)
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 1)
    with uncached():
        delegated = refine_numpy(net, colors)
    assert partition_of(direct) == partition_of(delegated)


def test_flat_network_is_memoized_per_network():
    net = cycle_graph(6)
    assert flat_network(net) is flat_network(net)
    assert flat_network(net).n == 6


def test_surrounding_backends_build_the_same_digraph(monkeypatch):
    for name, build in FAMILIES:
        net = build()
        for u in (0, net.num_nodes // 2):
            built = {}
            for on_numpy in (True, False):
                monkeypatch.setattr(
                    surroundings, "use_digraph_kernel", lambda n, v=on_numpy: v
                )
                built[on_numpy] = surroundings._surrounding(net, u, None)
            assert built[True] == built[False], (name, u)
