"""Ablation A1 — tiered class ordering vs. full canonical forms.

DESIGN.md design choice: COMPUTE & ORDER sorts equivalence classes by a
cheap refinement fingerprint of their surroundings first, and computes the
expensive canonical form only among fingerprint ties.  The tiered leg is
``order_equivalence_classes``, which refines each class's surrounding once
(all of them as one array batch from ``DIGRAPH_KERNEL_MIN_NODES`` nodes
on) and reads both tiers off that refinement.  The full-canonical leg asks
``surrounding_profile`` and ``surrounding_key`` of every class, each on its
own.  This ablation verifies the two produce the *same order* (the
correctness claim) and measures the speedup (the reason the tier and the
batch exist), on the small battery and on four maps above the crossover:
the serve workload's 16×16 torus and 10×10 grid, a 120-cycle and Q7.

Each instance's legs alternate, both cold (every memo dropped), for at
least ``_MIN_ROUNDS`` rounds and ``_BUDGET_S`` seconds.
``extra_info["<instance>_speedup"]`` is the median over rounds of full
over tiered (higher is better): pairing the legs within a round keeps a
slow phase of the machine off one side only.  CI gates it against
``benchmarks/baselines/BENCH_order.json`` with the perf-regression
sentinel.
"""

import statistics
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
    torus_cayley,
)
from repro.graphs.cayley import cube_connected_cycles
from repro.graphs.surroundings import surrounding_profile
from repro.perf.cache import invalidate

_MIN_ROUNDS = 5
_BUDGET_S = 0.5


def battery():
    """(label, network, bicoloring): the small battery, then n >= 80."""
    cases = [
        ("C8", cycle_graph(8), [0, 2]),
        ("C12", cycle_graph(12), [0, 3]),
        ("P9", path_graph(9), [0, 4]),
        ("G3x4", grid_graph(3, 4), [0, 5]),
        ("Petersen", petersen_graph(), [0, 1]),
        ("Q3", hypercube_cayley(3).network, [0, 1]),
        ("K6", complete_graph(6), [0, 1]),
        ("CCC3", cube_connected_cycles(3).network, [0, 1]),
        ("T16x16", torus_cayley([16, 16]).network, [98, 156]),
        ("G10x10", grid_graph(10, 10), [78, 97, 98]),
        ("C120", cycle_graph(120), [0, 40]),
        ("Q7", hypercube_cayley(7).network, [0, 3]),
    ]
    return [
        (label, net, Placement.of(homes).bicoloring(net))
        for label, net, homes in cases
    ]


def full_canonical_order(network, classes, bicolor):
    """The un-tiered baseline: compute the expensive canonical key for
    EVERY class (same composite sort key as the tiered version, so any
    difference would mean the tier's key-skipping changed the order)."""
    keyed = []
    for cls in classes:
        members = sorted(cls)
        profile = surrounding_profile(network, members[0], bicolor)
        key = surrounding_key(network, members[0], bicolor)
        keyed.append((profile, key, members))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [members for (_, _, members) in keyed]


def _timed(fn, *args):
    # Both legs start cold: the memos one leg fills would otherwise make
    # the other leg's canonical keys free.
    invalidate()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_ablation():
    """Per instance: both orders, each leg's fastest round and the speedup."""
    rows = []
    for label, net, bicolor in battery():
        classes = equivalence_classes(net, bicolor)
        tiered_s, full_s = [], []
        deadline = time.perf_counter() + _BUDGET_S
        while len(tiered_s) < _MIN_ROUNDS or time.perf_counter() < deadline:
            tiered, t = _timed(order_equivalence_classes, net, classes, bicolor)
            tiered_s.append(t)
            baseline, t = _timed(full_canonical_order, net, classes, bicolor)
            full_s.append(t)
        speedup = statistics.median(f / t for f, t in zip(full_s, tiered_s))
        rows.append((label, tiered, baseline, min(tiered_s), min(full_s), speedup))
    return rows


def test_bench_ablation_ordering(once, benchmark):
    rows = once(run_ablation)
    total_tiered = total_full = 0.0
    for label, tiered, baseline, t_tiered, t_full, speedup in rows:
        assert tiered == baseline, f"order diverged on {label}"
        total_tiered += t_tiered
        total_full += t_full
        benchmark.extra_info[f"{label}_speedup"] = round(speedup, 3)
        print(
            f"\n{label}: tiered {t_tiered * 1e3:.2f} ms, "
            f"full-canonical {t_full * 1e3:.2f} ms, speedup {speedup:.2f}x",
            end="",
        )
    # The tier must not be slower overall (it usually wins big when large
    # symmetric cells make canonical forms expensive).
    assert total_tiered <= total_full * 1.2
    print(
        f"\ntiered: {total_tiered * 1e3:.1f} ms   "
        f"full-canonical: {total_full * 1e3:.1f} ms   "
        f"speedup: {total_full / max(total_tiered, 1e-9):.1f}x"
    )
