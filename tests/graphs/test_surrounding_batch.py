"""Each class's surrounding refined once: the batch kernel and the class order.

``order_equivalence_classes`` refines every representative's surrounding
exactly once and reads both tiers of the Lemma 3.1 order off that
refinement: the profile, and for profile ties the canonical key (straight
from a discrete refinement, or a canonical search started from it).  When
the k surroundings of an n-node map make k·n rows from
``DIGRAPH_KERNEL_MIN_NODES`` on, they are refined as one array problem
by ``refine_surroundings``.  Pinned here:

* the batch returns the reference class ids of every surrounding, at any
  size and any chunking (Hypothesis, calling the batch directly at small
  n too);
* every profile and key equals ``surrounding_profile`` and
  ``surrounding_key``, and the class order equals the two-tier
  per-surrounding reference, on large instances and relabeled copies;
* each surrounding is refined once, in Python or in one batch by the
  row count, and the searches that remain start from the refined
  partition;
* out-of-range nodes, wrong class lists and non-simple maps raise the
  same ``GraphError`` on either side of the crossover.
"""

import functools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import (
    complete_bipartite_graph,
    cycle_graph,
    equivalence_classes,
    grid_graph,
    hypercube_cayley,
    path_graph,
    torus_cayley,
)
from repro.graphs import canonical, surroundings
from repro.graphs.canonical import _digraph_refinement_python, canonical_key
from repro.graphs.labelings import random_integer_labeling
from repro.graphs.network import AnonymousNetwork
from repro.graphs.surroundings import (
    _RefinedSurroundings,
    order_equivalence_classes,
    surrounding,
    surrounding_key,
    surrounding_profile,
)
from repro.graphs.views import _normalize_colors
from repro.perf import kernel, uncached
from repro.perf.kernel import (
    DIGRAPH_KERNEL_MIN_NODES,
    DigraphKernel,
    refine_surroundings,
)

BELOW, AT = DIGRAPH_KERNEL_MIN_NODES - 1, DIGRAPH_KERNEL_MIN_NODES

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bicoloring(n, homes):
    return [1 if v in homes else 0 for v in range(n)]


@st.composite
def instances(draw, max_nodes=12):
    """A connected simple network, a coloring and a list of sources.

    Colors are drawn with gaps and may be negative; sources may repeat.
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    rng = random.Random(draw(st.integers(0, 2**30)))
    pairs = [(rng.randrange(v), v) for v in range(1, n)]  # spanning tree
    extra = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs
    ]
    rng.shuffle(extra)
    pairs.extend(extra[: draw(st.integers(0, 2 * n))])
    network = random_integer_labeling(n, pairs, rng=rng)
    palette = draw(st.sampled_from(((0, 1), (0, 1, 2), (-2, 5))))
    colors = [rng.choice(palette) for _ in range(n)]
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return network, colors, sources


# ----------------------------------------------------------------------
# The batch kernel against the per-surrounding references
# ----------------------------------------------------------------------


@SETTINGS
@given(instances(), st.sampled_from((1, 7, 64, kernel.SURROUNDING_BATCH_CELLS)))
def test_batch_returns_every_surroundings_reference_ids(case, cells):
    network, colors, sources = case
    palette = _normalize_colors(network, colors)
    with mock.patch.object(kernel, "SURROUNDING_BATCH_CELLS", cells):
        batch = refine_surroundings(network, sources, palette)
    assert batch.ids.shape == batch.dist.shape == (len(sources), network.num_nodes)
    for i, u in enumerate(sources):
        g = surrounding(network, u, colors)
        ids = batch.ids[i].tolist()
        assert ids == _digraph_refinement_python(g, palette)
        assert ids == DigraphKernel(g).refine(palette)
        assert batch.dist[i].tolist() == network.distances_from(u)
        if max(ids) == network.num_nodes - 1:
            order = sorted(range(network.num_nodes), key=ids.__getitem__)
            colors_row = tuple(palette[x] for x in order)
            key = (network.num_nodes, colors_row, batch.bits(i))
            assert key == canonical_key(g)


@SETTINGS
@given(instances(), st.booleans())
def test_profiles_and_keys_equal_the_per_surrounding_ones(case, on_batch):
    network, colors, sources = case
    palette = _normalize_colors(network, colors)
    with uncached(), mock.patch.object(
        surroundings, "use_digraph_kernel", lambda n: on_batch
    ):
        refined = _RefinedSurroundings(network, sources, colors, palette)
        got = [(refined.profile(i), refined.key(i)) for i in range(len(sources))]
    with uncached():
        want = [
            (surrounding_profile(network, u, colors), surrounding_key(network, u, colors))
            for u in sources
        ]
    assert got == want


def test_chunking_does_not_change_the_numbering():
    net = torus_cayley([16, 16]).network
    colors = bicoloring(256, {98, 156})
    sources = list(range(0, 256, 3))
    whole = refine_surroundings(net, sources, colors)
    with mock.patch.object(kernel, "SURROUNDING_BATCH_CELLS", 5000):
        chunked = refine_surroundings(net, sources, colors)
    assert (whole.ids == chunked.ids).all()
    assert (whole.dist == chunked.dist).all()


# ----------------------------------------------------------------------
# The class order against the two-tier per-surrounding reference
# ----------------------------------------------------------------------


def reference_keyed(network, classes, colors, every_key=True):
    """The per-surrounding reference of the class order, as sorted triples.

    ``(surrounding_profile, surrounding_key, members)`` per class, sorted
    by profile and key.  With ``every_key`` off, a class whose profile is
    unique gets no key (the order never compares it), which is the
    two-tier rule itself.
    """
    profiles = [
        surrounding_profile(network, min(cls), colors) for cls in classes
    ]
    tied = Counter(profiles)
    keyed = []
    for cls, profile in zip(classes, profiles):
        members = sorted(cls)
        key = None
        if every_key or tied[profile] > 1:
            key = surrounding_key(network, members[0], colors)
        keyed.append((profile, key, members))
    keyed.sort(key=lambda item: (item[0], item[1] or ()))
    return keyed


def permuted(network, colors, seed):
    perm = list(range(network.num_nodes))
    random.Random(seed).shuffle(perm)
    moved = [0] * network.num_nodes
    for node, color in enumerate(colors):
        moved[perm[node]] = color
    return network.with_nodes_permuted(perm), moved, perm


#: name -> (network builder, homes, whether some profile tie is
#: non-discrete, whether every class is keyed).  No two classes of a
#: K_a,a tie, and one K40,40 surrounding key takes about 2 s.
LARGE = {
    "T16x16": (lambda: torus_cayley([16, 16]).network, {98, 156}, False, True),
    "G10x10": (lambda: grid_graph(10, 10), {78, 97, 98}, False, True),
    "G16x16": (lambda: grid_graph(16, 16), {0, 17}, False, True),
    "C120": (lambda: cycle_graph(120), {0, 40}, True, True),
    "P90": (lambda: path_graph(90), {0, 30}, False, True),
    "Q7": (lambda: hypercube_cayley(7).network, {2, 5, 6, 7}, True, True),
    "Q7-untied": (lambda: hypercube_cayley(7).network, {0, 3}, False, True),
    "K40,40": (lambda: complete_bipartite_graph(40, 40), {0, 1, 40}, False, False),
}


@functools.lru_cache(maxsize=None)
def large_instance(name):
    """A LARGE instance, its bicoloring, classes and class order."""
    build, homes = LARGE[name][:2]
    network = build()
    colors = bicoloring(network.num_nodes, homes)
    classes = equivalence_classes(network, colors)
    with uncached():
        order = order_equivalence_classes(network, classes, colors)
    return network, colors, classes, order


@pytest.fixture
def seeded_roots(monkeypatch):
    """Record the root every canonical search of the class order starts from."""
    roots = []
    real = surroundings.canonical_search

    def recording(g, root=None):
        roots.append(root)
        return real(g, root=root)

    monkeypatch.setattr(surroundings, "canonical_search", recording)
    return roots


@pytest.mark.parametrize("name", sorted(LARGE))
@pytest.mark.parametrize("copy", [False, True], ids=["original", "relabeled"])
def test_order_equals_the_two_tier_reference(seeded_roots, name, copy):
    non_discrete_tie, every_key = LARGE[name][2:]
    network, colors, classes, original = large_instance(name)
    if copy:
        network, colors, perm = permuted(network, colors, seed=len(name))
        classes = [[perm[v] for v in cls] for cls in classes]
    with uncached():
        keyed = reference_keyed(network, classes, colors, every_key)
        sources = [members[0] for (_, _, members) in keyed]
        refined = _RefinedSurroundings(
            network, sources, colors, _normalize_colors(network, colors)
        )
        for i, (profile, key, _) in enumerate(keyed):
            assert refined.profile(i) == profile, name
            if key is not None:
                assert refined.key(i) == key, name
        del seeded_roots[:]
        got = order_equivalence_classes(network, classes, colors)
    assert got == [members for (_, _, members) in keyed]
    if copy:  # Lemma 3.1: the order is an isomorphism invariant
        assert got == [sorted(perm[v] for v in cls) for cls in original]
    # Every search the order ran started from the refined partition, and
    # only a non-discrete tie needs one.
    assert all(root is not None for root in seeded_roots)
    assert bool(seeded_roots) == non_discrete_tie


def test_each_surrounding_is_refined_once(monkeypatch):
    refinements = []
    searches = []
    batches = []
    real_refinement = surroundings.digraph_refinement
    real_refiner = canonical._make_refiner
    real_batch = surroundings.refine_surroundings

    def refinement(g, initial):
        refinements.append(g.num_nodes)
        return real_refinement(g, initial)

    def refiner(g):
        searches.append(g.num_nodes)
        return real_refiner(g)

    def batch(network, sources, colors):
        batches.append(len(sources))
        return real_batch(network, sources, colors)

    monkeypatch.setattr(surroundings, "digraph_refinement", refinement)
    monkeypatch.setattr(canonical, "_make_refiner", refiner)
    monkeypatch.setattr(surroundings, "refine_surroundings", batch)
    # No home sits at the middle of these paths, so every class is a
    # singleton: n surroundings of n rows each.  Every tie is discrete,
    # so no search is needed.
    for n, homes, batched in (
        (8, {0}, False),  # 64 rows
        (9, {0}, True),  # 81 rows
        (BELOW, {0, 30}, True),
        (AT, {0, 30}, True),
    ):
        net = path_graph(n)
        colors = bicoloring(n, homes)
        classes = equivalence_classes(net, colors)
        assert len(classes) == n
        del refinements[:], searches[:], batches[:]
        with uncached():
            order_equivalence_classes(net, classes, colors)
        if batched:
            assert (refinements, batches) == ([], [n]), n
        else:
            assert (refinements, batches) == ([n] * n, []), n
        assert searches == [], n


# ----------------------------------------------------------------------
# Errors: the same GraphError on either side of the crossover
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [BELOW, AT], ids=["below", "at"])
@pytest.mark.parametrize("which", ["-1", "n", "n+5"])
@pytest.mark.parametrize(
    "fn", [surrounding, surrounding_profile, surrounding_key],
    ids=lambda fn: fn.__name__,
)
def test_out_of_range_node_raises_graph_error(n, which, fn):
    u = {"-1": -1, "n": n, "n+5": n + 5}[which]
    net = cycle_graph(n)
    with pytest.raises(GraphError) as excinfo:
        fn(net, u)
    assert type(excinfo.value) is GraphError
    assert str(excinfo.value) == f"node index {u} out of range 0..{n - 1}"


def wrong_class_lists(n):
    """(classes, expected message) on a pointed cycle of n nodes."""
    net = cycle_graph(n)
    colors = bicoloring(n, {0})
    classes = equivalence_classes(net, colors)
    pair = next(sorted(cls) for cls in classes if len(cls) == 2)
    split = [cls for cls in classes if sorted(cls) != pair]
    split += [[pair[0]], [pair[1]]]
    with uncached():
        keyed = reference_keyed(net, split, colors)
    dup = next(
        (c1, c2)
        for (p1, k1, c1), (p2, k2, c2) in zip(keyed, keyed[1:])
        if (p1, k1) == (p2, k2)
    )
    return net, colors, [
        (
            split,
            f"two distinct classes {dup[0]} and {dup[1]} share a surrounding "
            "key; input classes are not the Definition 2.1 classes",
        ),
        (classes[:1] + [[]] + classes[1:], "empty equivalence class"),
        (classes + [[n + 3]], f"node index {n + 3} out of range 0..{n - 1}"),
        (classes[:2] + [[-1, 0]], f"node index -1 out of range 0..{n - 1}"),
    ]


# The wrong class lists of C8 make at most 6 · 8 rows, so the order
# refines them in Python; those of C79 and C80 make thousands of rows, so
# the order takes the batch on both.
@pytest.mark.parametrize("n", [8, BELOW, AT], ids=["rows-below", "below", "at"])
def test_wrong_class_lists_raise_the_same_graph_error(n):
    net, colors, cases = wrong_class_lists(n)
    split = cases[0][0]
    assert (n * len(split) < DIGRAPH_KERNEL_MIN_NODES) == (n == 8)
    for classes, message in cases:
        with uncached(), pytest.raises(GraphError) as excinfo:
            order_equivalence_classes(net, classes, colors)
        assert type(excinfo.value) is GraphError
        assert str(excinfo.value) == message
    with pytest.raises(GraphError) as excinfo:
        order_equivalence_classes(net, [[0]], [0, 1, 0])
    assert str(excinfo.value) == f"node coloring has 3 entries for {n} nodes"


@pytest.mark.parametrize("n", [BELOW, AT], ids=["below", "at"])
def test_non_simple_maps_raise_before_any_refinement(n):
    # A cycle with one chord doubled: a parallel edge.
    edges = [(v, 0, (v + 1) % n, 1) for v in range(n)] + [(0, 2, 1, 2)]
    net = AnonymousNetwork(n, edges)
    assert not net.is_simple
    for call in (
        lambda: order_equivalence_classes(net, [list(range(n))]),
        lambda: surrounding(net, 0),
        lambda: surrounding_key(net, n + 1),
    ):
        with pytest.raises(GraphError) as excinfo:
            call()
        assert str(excinfo.value) == "surroundings are defined for simple networks"
    # An empty first class is reported before the map is looked at.
    with pytest.raises(GraphError, match="^empty equivalence class$"):
        order_equivalence_classes(net, [[], [0]])
