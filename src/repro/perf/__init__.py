"""Performance layer: memoization, refinement kernels, parallel batteries.

Every feasibility question in the reproduction — Theorem 2.1 certificates,
σ_ℓ(G) symmetricity, Lemma 3.1 class ordering, the Table 1 batteries —
funnels through the view-refinement and canonical-form machinery in
:mod:`repro.graphs`.  This package makes that layer fast and measurable:

* :mod:`repro.perf.cache` — a per-:class:`~repro.graphs.AnonymousNetwork`
  memo cache shared by ``view_refinement``, ``view_classes``,
  ``views_equal``, ``symmetricity_of_labeling``, ``view_quotient``,
  ``surrounding_key``, ``canonical_key`` and (once per isomorphism class)
  ``compute_class_structure``, with hit/miss counters, an explicit
  ``invalidate`` and an ``uncached()`` escape hatch;
* :mod:`repro.perf.kernel` — the flat-array refinement kernel: CSR-style
  numpy buffers per network (:func:`flat_network`), the vectorized view
  refinement (:func:`refine_numpy`), and the exact-parity digraph kernel
  the canonical machinery uses from a measured row count on
  (:func:`~repro.perf.kernel.use_digraph_kernel`);
* :mod:`repro.perf.parallel` — :class:`ParallelBatteryRunner`, a
  ``concurrent.futures`` fan-out over independent election instances with
  deterministic result ordering (used by ``reproduce_table1`` and the
  instance batteries), including the shared-memory ``map_on_network`` path;
* :mod:`repro.perf.shm` — one-shot shared-memory export of a network's
  flat buffers for process workers (:func:`~repro.perf.shm.export_network`
  / :func:`~repro.perf.shm.attach_network`).

Benchmark JSON is compared against the committed baselines by the
perf-regression sentinel, ``python -m repro.obs regress``
(:mod:`repro.obs.regress`).

Networks are immutable after construction (all transformations return
copies), which is what makes identity-keyed caching sound; see DESIGN §8.2
for the keying and invalidation rules.
"""

from .cache import (
    cache_enabled,
    cache_stats,
    invalidate,
    memo,
    memo_value,
    metrics_registry,
    reset,
    reset_cache_stats,
    stats_rows,
    uncached,
)
from .kernel import flat_network, refine_numpy
from .parallel import ParallelBatteryRunner, parallel_map
from .shm import SharedNetworkHandle, attach_network, export_network

__all__ = [
    "ParallelBatteryRunner",
    "SharedNetworkHandle",
    "attach_network",
    "export_network",
    "flat_network",
    "parallel_map",
    "refine_numpy",
    "cache_enabled",
    "cache_stats",
    "invalidate",
    "memo",
    "memo_value",
    "metrics_registry",
    "reset",
    "reset_cache_stats",
    "stats_rows",
    "uncached",
]
