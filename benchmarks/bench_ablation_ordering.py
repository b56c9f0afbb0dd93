"""Ablation A1 — tiered class ordering vs. full canonical forms.

DESIGN.md design choice: COMPUTE & ORDER sorts equivalence classes by a
cheap refinement fingerprint of their surroundings first, and computes the
expensive canonical form only among fingerprint ties.  This ablation
verifies the two strategies produce the *same order* on a battery (the
correctness claim) and measures the speedup (the reason the tier exists).
"""

import time

from repro.core import Placement
from repro.graphs import (
    complete_graph,
    cycle_graph,
    equivalence_classes,
    grid_graph,
    hypercube_cayley,
    order_equivalence_classes,
    path_graph,
    petersen_graph,
    surrounding_key,
)
from repro.graphs.cayley import cube_connected_cycles
from repro.perf.cache import invalidate


def battery():
    cases = [
        (cycle_graph(8), [0, 2]),
        (cycle_graph(12), [0, 3]),
        (path_graph(9), [0, 4]),
        (grid_graph(3, 4), [0, 5]),
        (petersen_graph(), [0, 1]),
        (hypercube_cayley(3).network, [0, 1]),
        (complete_graph(6), [0, 1]),
        (cube_connected_cycles(3).network, [0, 1]),
    ]
    return [(net, Placement.of(homes).bicoloring(net)) for net, homes in cases]


def full_canonical_order(network, classes, bicolor):
    """The un-tiered baseline: compute the expensive canonical key for
    EVERY class (same composite sort key as the tiered version, so any
    difference would mean the tier's key-skipping changed the order)."""
    from repro.graphs.surroundings import surrounding_profile

    keyed = []
    for cls in classes:
        members = sorted(cls)
        profile = surrounding_profile(network, members[0], bicolor)
        key = surrounding_key(network, members[0], bicolor)
        keyed.append((profile, key, members))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [members for (_, _, members) in keyed]


def run_ablation():
    rows = []
    for net, bicolor in battery():
        classes = equivalence_classes(net, bicolor)
        # Both legs start cold: the surrounding memos one leg fills would
        # otherwise make the other leg's canonical keys free.
        invalidate()
        t0 = time.perf_counter()
        tiered = order_equivalence_classes(net, classes, bicolor)
        t_tiered = time.perf_counter() - t0
        invalidate()
        t0 = time.perf_counter()
        baseline = full_canonical_order(net, classes, bicolor)
        t_full = time.perf_counter() - t0
        rows.append((net.name, tiered, baseline, t_tiered, t_full))
    return rows


def test_bench_ablation_ordering(once):
    rows = once(run_ablation)
    total_tiered = total_full = 0.0
    for name, tiered, baseline, t_tiered, t_full in rows:
        assert tiered == baseline, f"order diverged on {name}"
        total_tiered += t_tiered
        total_full += t_full
    # The tier must not be slower overall (it usually wins big when large
    # symmetric cells make canonical forms expensive).
    assert total_tiered <= total_full * 1.2
    print(
        f"\ntiered: {total_tiered * 1e3:.1f} ms   "
        f"full-canonical: {total_full * 1e3:.1f} ms   "
        f"speedup: {total_full / max(total_tiered, 1e-9):.1f}x"
    )
