"""Parity properties for the view-refinement backends.

Four independent computations of view equivalence must induce the *same
partition* on every network (simple, multi-edge, or looped):

* the flat-array numpy kernel (``refine_numpy``, what ``view_refinement``
  runs),
* the Paige–Tarjan worklist refinement (``_refine_worklist``),
* the round-based reference implementation (``view_refinement_baseline``,
  the Norris bound made executable), and
* grouping nodes by their depth-``(n-1)`` :func:`view_tree` encodings
  (Norris's theorem: depth ``n-1`` suffices to decide view equivalence).

Also pinned here: cached and uncached calls agree, and every backend's
canonical class ids are equivariant under node renumbering and under
globally-consistent port relabelings (the properties
``view_order_leader``'s correctness rests on).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.builders import cycle_graph, petersen_graph
from repro.graphs.cayley import hypercube_cayley, torus_cayley
from repro.graphs.network import AnonymousNetwork
from repro.graphs.views import (
    _normalize_colors,
    _refine_worklist,
    view_refinement,
    view_refinement_baseline,
    view_tree,
)
from repro.perf import refine_numpy, uncached

#: The three view-refinement backends, called directly.
BACKENDS = {
    "numpy": lambda net, colors=None: refine_numpy(
        net, _normalize_colors(net, colors)
    ),
    "worklist": lambda net, colors=None: _refine_worklist(
        net, _normalize_colors(net, colors)
    ),
    "baseline": view_refinement_baseline,
}

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def partition_of(ids):
    """Node partition induced by a class-id vector (order-free form)."""
    buckets = {}
    for node, cid in enumerate(ids):
        buckets.setdefault(cid, []).append(node)
    return sorted(tuple(members) for members in buckets.values())


@st.composite
def port_networks(draw, max_nodes=7, allow_nonsimple=True):
    """A connected port-labeled network with integer ports.

    Random spanning tree plus extra edges; when ``allow_nonsimple`` those
    extras may duplicate an edge or form a loop (the Figure 2(c) regime).
    """
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    rng = random.Random(draw(st.integers(0, 2**30)))
    degree = [0] * n
    records = []

    def add_edge(u, v):
        pu, pv = degree[u], degree[v] + (1 if u == v else 0)
        degree[u] += 1
        degree[v] += 1
        records.append((u, pu, v, pv))

    for v in range(1, n):
        add_edge(rng.randrange(v), v)
    for _ in range(draw(st.integers(0, n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if not allow_nonsimple:
            if u == v or any(
                {u, v} == {a, b} for (a, _, b, _) in records
            ):
                continue
        add_edge(u, v)
    return AnonymousNetwork(n, records)


@st.composite
def colored_networks(draw, max_nodes=7, allow_nonsimple=True):
    net = draw(port_networks(max_nodes=max_nodes, allow_nonsimple=allow_nonsimple))
    colors = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(0, 2),
                min_size=net.num_nodes,
                max_size=net.num_nodes,
            ),
        )
    )
    return net, colors


@SETTINGS
@given(colored_networks())
def test_worklist_matches_baseline_partition(case):
    net, colors = case
    with uncached():
        worklist = BACKENDS["worklist"](net, colors)
        baseline = view_refinement_baseline(net, colors)
    assert partition_of(worklist) == partition_of(baseline)


@SETTINGS
@given(colored_networks(max_nodes=5))
def test_worklist_matches_view_tree_classes(case):
    """Norris: nodes are view-equivalent iff their depth-(n-1) trees agree."""
    net, colors = case
    with uncached():
        ids = view_refinement(net, colors)
        trees = [
            view_tree(net, v, net.num_nodes - 1, colors) for v in net.nodes()
        ]
    by_tree = {}
    for v, tree in enumerate(trees):
        by_tree.setdefault(tree.encoding, []).append(v)
    assert partition_of(ids) == sorted(
        tuple(members) for members in by_tree.values()
    )


@SETTINGS
@given(colored_networks())
def test_cached_equals_uncached(case):
    net, colors = case
    cached_once = view_refinement(net, colors)
    cached_again = view_refinement(net, colors)
    with uncached():
        fresh = view_refinement(net, colors)
    assert cached_once == cached_again == fresh


@SETTINGS
@given(port_networks(), st.integers(0, 2**30))
def test_class_ids_equivariant_under_renumbering(net, perm_seed):
    """Canonical ids: renumbering nodes permutes the id vector accordingly."""
    perm = list(range(net.num_nodes))
    random.Random(perm_seed).shuffle(perm)
    with uncached():
        ids = view_refinement(net)
        permuted_ids = view_refinement(net.with_nodes_permuted(perm))
    assert all(
        permuted_ids[perm[v]] == ids[v] for v in net.nodes()
    )


# ----------------------------------------------------------------------
# Three-backend parity (numpy / worklist / baseline)
# ----------------------------------------------------------------------


@SETTINGS
@given(colored_networks())
def test_all_backends_same_partition(case):
    """The cross-backend contract: one partition, whatever computes it."""
    net, colors = case
    with uncached():
        parts = {
            k: partition_of(BACKENDS[k](net, colors))
            for k in BACKENDS
        }
    assert parts["numpy"] == parts["worklist"] == parts["baseline"]


@SETTINGS
@given(
    port_networks(), st.integers(0, 2**30), st.sampled_from(sorted(BACKENDS))
)
def test_backend_ids_equivariant_under_renumbering(net, perm_seed, backend):
    """Each backend's ids are canonical, not just the production kernel's."""
    perm = list(range(net.num_nodes))
    random.Random(perm_seed).shuffle(perm)
    with uncached():
        ids = BACKENDS[backend](net)
        permuted_ids = BACKENDS[backend](net.with_nodes_permuted(perm))
    assert all(permuted_ids[perm[v]] == ids[v] for v in net.nodes())


@SETTINGS
@given(port_networks(allow_nonsimple=False), st.integers(0, 2**30))
def test_backends_agree_on_relabeled_port_shifted_copies(net, perm_seed):
    """A renumbered, port-shifted copy keeps the partition, per backend.

    Shifting every integer port by a constant is a label isomorphism of the
    whole network (exact-label view isomorphisms compose with it), so the
    view partition of the copy must match the original's under every
    backend — and the backends must agree with each other on the copy.
    """
    perm = list(range(net.num_nodes))
    random.Random(perm_seed).shuffle(perm)
    copy = net.with_nodes_permuted(perm).with_ports_relabeled(
        {
            perm[v]: {p: p + 10 for p in net.ports(v)}
            for v in net.nodes()
        }
    )
    with uncached():
        base = {
            k: partition_of(BACKENDS[k](net)) for k in BACKENDS
        }
        shifted = {
            k: partition_of(BACKENDS[k](copy)) for k in BACKENDS
        }
    assert base["numpy"] == base["worklist"] == base["baseline"]
    assert shifted["numpy"] == shifted["worklist"] == shifted["baseline"]
    relabeled = sorted(
        tuple(sorted(perm[v] for v in members)) for members in base["numpy"]
    )
    assert shifted["numpy"] == relabeled


STRUCTURED_FAMILIES = [
    ("cycle-12", lambda: cycle_graph(12)),
    ("hypercube-16", lambda: hypercube_cayley(4).network),
    ("torus-4x5", lambda: torus_cayley([4, 5]).network),
    ("petersen", petersen_graph),
]


@pytest.mark.parametrize(
    "name,build", STRUCTURED_FAMILIES, ids=[n for n, _ in STRUCTURED_FAMILIES]
)
def test_backends_agree_on_structured_families(name, build):
    """The benchmark families, uniform and pointed (the accelerated regime)."""
    net = build()
    n = net.num_nodes
    colorings = [None, [1] + [0] * (n - 1), [0] * (n // 2) + [1] * (n - n // 2)]
    for colors in colorings:
        with uncached():
            parts = [
                partition_of(BACKENDS[k](net, colors))
                for k in BACKENDS
            ]
        assert parts[0] == parts[1] == parts[2], (name, colors)
