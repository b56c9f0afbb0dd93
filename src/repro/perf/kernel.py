"""Flat-array refinement kernel: vectorized canonical/view pipeline.

The refinement machinery in :mod:`repro.graphs.views` and
:mod:`repro.graphs.canonical` bottoms out in per-node Python tuple lists —
fine at n ≈ 500, hopeless at n ≈ 50 000.  This module re-architects that
hot path on flat integer arrays:

* :class:`FlatNetwork` — a CSR-style numpy image of an
  :class:`~repro.graphs.network.AnonymousNetwork`: one ``int64`` buffer per
  column of the ``(exit symbol, entry symbol, neighbor)`` edge-end table,
  plus the dense rank of each ``(exit, entry)`` pair and the scatter
  indices a vectorized round needs.  Built once per network and memoized
  alongside ``refinement_adjacency``.
* :func:`refine_numpy` — partition refinement to fixpoint as array passes:
  each round packs the per-end ``(pair rank, neighbor class)`` signature
  into a single integer column, segment-sorts it (a plain ``np.sort`` row
  sort for regular graphs, a ``np.lexsort`` for irregular ones), scatters
  the sorted triples into a padded per-node signature matrix and re-ranks
  densely with ``np.unique(axis=0, return_inverse=True)``.  Ids are
  assigned by sorted signature only — never by node index — so the kernel
  honors the same equivariant class-numbering contract as
  ``_refine_worklist``.
* a **distance accelerator**: a synchronized round propagates information
  one hop, so a pointed cycle of n nodes needs n/2 rounds no matter how
  fast each round is.  The kernel therefore interleaves rounds with
  *distance-to-class refinement*: BFS distances to whole classes of the
  current partition (C-speed via ``scipy.sparse.csgraph`` when available,
  pure-Python otherwise) are appended to the signature and re-ranked.
  This is sound — in the coarsest stable partition every class has uniform
  distance to any class of any coarser partition (induction on the
  distance: a node at distance k has a neighbor in a class of uniform
  distance k−1, and stability makes "has a neighbor in class D" a class
  property) — and it collapses the diameter-bound round count to a
  handful on the long-diameter families.
* :class:`DigraphKernel` — the equitable digraph refinement of
  :func:`repro.graphs.canonical.digraph_refinement` as the same padded
  unique-rank pass.  Unlike the view kernel this reproduces the Python
  numbering **exactly** (the padded-row lexicographic order equals the
  Python tuple order because the pad ``-1`` sorts before every class id,
  matching the shorter-tuple-first rule), so canonical encodings,
  ``canonical_key`` values and the pinned ``canonical_hash`` goldens do
  not depend on which backend refined.

Backend dispatch
----------------
No selector: the backend follows from the input.  View refinement always
runs :func:`refine_numpy`.  The digraph sites — the one-shot
``digraph_refinement``, the refiner of the canonical search and the
surroundings arc builder — ask :func:`use_digraph_kernel`, which picks the
flat-array kernel from :data:`DIGRAPH_KERNEL_MIN_NODES` nodes on and the
Python reference below it, where the kernel's per-call numpy overhead
outweighs its vectorized rounds.  The rule reads only the node count,
which isomorphic copies share, and both backends number classes alike, so
every canonical key is the same whichever backend computed it.  The
pure-Python view refinements (``_refine_worklist`` and
``view_refinement_baseline``) stay as parity oracles.

Degenerate guard: the padded signature matrix is Θ(n · Δ).  On irregular
graphs with a huge hub (``n · Δ`` beyond ``DENSE_LIMIT`` cells) the numpy
view backend transparently delegates to the worklist — a deterministic,
size-only decision, so isomorphic copies take the same path and
equivariance is preserved.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import cache as _cache

try:  # C-speed BFS for the distance accelerator; optional.
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _csr_matrix = None
    _csgraph_dijkstra = None
    HAVE_SCIPY = False

#: Padded-signature cell budget before the numpy view backend delegates to
#: the worklist (n · (Δ+1) int64 cells ≈ 8 bytes each; 64e6 ≈ 512 MB is
#: far above every benchmark family but guards hub-dominated graphs).
DENSE_LIMIT = 64_000_000

#: Distance-accelerator tuning: BFS sources per invocation and invocations
#: per refinement (it re-arms before every round until the budget is spent).
ACCEL_SOURCES = 8
ACCEL_BUDGET = 4

#: Largest ``classes × column-span`` product the packed int64 re-ranking
#: accepts before falling back to ``np.unique(axis=0)``.
_PACK_LIMIT = 2**62

_PAD = np.int64(-1)

#: Node count from which the digraph sites refine on :class:`DigraphKernel`
#: (the Python reference below it).  Chosen from the small-n sweep of
#: ``benchmarks/bench_refinement_scaling.py``: canonical search and one-shot
#: refinement on both backends, cycles, grids, tori, hypercubes, K_a,a and
#: Petersen at n = 6..256 with two homes.  Python wins every search up to
#: n = 36 (numpy 2-6x slower at n <= 16); at n = 64 numpy wins only on the
#: cycle (0.80x) and loses 1.3-1.5x on the grid, torus and Q6; from n = 80
#: it wins on cycles (0.69x) and costs on the other families level off to
#: 0.8-1.2x.  The summed log numpy/python ratio (search plus one-shot) of
#: the instances a threshold sends to numpy is least at 80: -7.3, tied with
#: 96, against -5.3 at 64 (medians of four sweeps, 2-vCPU Xeon, 2.1 GHz).
DIGRAPH_KERNEL_MIN_NODES = 80


def use_digraph_kernel(num_nodes: int) -> bool:
    """The dispatch rule of the digraph sites: numpy from the crossover on."""
    return num_nodes >= DIGRAPH_KERNEL_MIN_NODES


def default_kernel() -> str:
    """The name of the dispatch rule (benchmark metadata records it)."""
    return f"numpy-views+digraphs-from-n{DIGRAPH_KERNEL_MIN_NODES}"


# ----------------------------------------------------------------------
# Flat network image
# ----------------------------------------------------------------------


class FlatNetwork:
    """CSR-style numpy buffers for one network's refinement structure.

    Edge-ends are grouped contiguously per owner node (CSR layout):
    ``indptr[x] : indptr[x + 1]`` slices every per-end column.  All buffers
    are immutable in spirit (never written after construction) so the
    memoized instance is shared freely across refinement calls, the
    surroundings fast path and the benchmarks.
    """

    __slots__ = (
        "n",
        "indptr",
        "owner",
        "exit_sym",
        "entry_sym",
        "nbr",
        "pair_rank",
        "num_pairs",
        "col",
        "max_degree",
        "regular_degree",
        "edge_u",
        "edge_v",
        "_bfs_csr",
        "_wbfs_csr",
        "_py_adjacency",
    )

    def __init__(self, network: Any):
        from ..graphs.views import refinement_adjacency

        adjacency = refinement_adjacency(network)
        n = network.num_nodes
        degrees = np.fromiter(
            (len(row) for row in adjacency), dtype=np.int64, count=n
        )
        total = int(degrees.sum())
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        exit_sym = np.empty(total, dtype=np.int64)
        entry_sym = np.empty(total, dtype=np.int64)
        nbr = np.empty(total, dtype=np.int64)
        pos = 0
        for row in adjacency:
            for (so, si, y) in row:
                exit_sym[pos] = so
                entry_sym[pos] = si
                nbr[pos] = y
                pos += 1
        owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
        # Dense rank of the (exit, entry) pair per edge-end: the ranking
        # respects lexicographic (exit, entry) order, so packing
        # (pair_rank, neighbor class) preserves the Python triple order.
        if total:
            span = int(entry_sym.max()) + 1 if total else 1
            packed = exit_sym * np.int64(span) + entry_sym
            pairs, pair_rank = np.unique(packed, return_inverse=True)
            pair_rank = pair_rank.reshape(-1).astype(np.int64, copy=False)
            num_pairs = len(pairs)
        else:
            pair_rank = np.empty(0, dtype=np.int64)
            num_pairs = 1
        self.n = n
        self.indptr = indptr
        self.owner = owner
        self.exit_sym = exit_sym
        self.entry_sym = entry_sym
        self.nbr = nbr
        self.pair_rank = pair_rank
        self.num_pairs = num_pairs
        #: Scatter column of each edge-end inside its owner's segment.
        self.col = np.arange(total, dtype=np.int64) - indptr[owner]
        self.max_degree = int(degrees.max()) if n else 0
        uniq_deg = np.unique(degrees)
        self.regular_degree = int(uniq_deg[0]) if len(uniq_deg) == 1 else None
        edges = network.edges()
        self.edge_u = np.fromiter((u for (u, _, _, _) in edges), dtype=np.int64, count=len(edges))
        self.edge_v = np.fromiter((v for (_, _, v, _) in edges), dtype=np.int64, count=len(edges))
        self._bfs_csr: Any = None
        self._wbfs_csr: Any = None
        self._py_adjacency: Optional[List[List[int]]] = None

    # -- BFS distances --------------------------------------------------

    def _ensure_bfs(self) -> Any:
        if self._bfs_csr is None and HAVE_SCIPY:
            # float64 data up front: csgraph validates-and-converts any
            # other dtype on *every* call, which dominates small BFS runs.
            data = np.ones(len(self.nbr), dtype=np.float64)
            self._bfs_csr = _csr_matrix(
                (data, self.nbr, self.indptr), shape=(self.n, self.n)
            )
        return self._bfs_csr

    def _ensure_weighted_bfs(self) -> Any:
        if self._wbfs_csr is None and HAVE_SCIPY:
            # Arc weight = B^pair_rank: an equivariant, port-aware metric.
            # Plain BFS is blind to any reflection that is an isometry of
            # the *unlabeled* graph (on a torus, distance from every
            # near-axis class is constant across diagonal twin pairs);
            # weighting arcs by their (exit, entry) pair makes the metric
            # see the port labels.  The geometric base B is picked so a
            # cheapest path's per-pair step counts occupy disjoint digit
            # ranges (no carries while counts stay below B), which makes
            # the column injective on the product-structured families —
            # one Dijkstra from the pointed class discretizes a torus —
            # while every sum stays an exact integer below 2^52 in
            # float64.  B depends only on (n, number of pairs): the same
            # deterministic value on every isomorphic copy.
            pairs = self.num_pairs
            if pairs <= 1:
                base = 1.0  # single pair: the metric degenerates to BFS
            else:
                base = float(int((2.0**52 / max(self.n, 2)) ** (1.0 / (pairs - 1))))
                base = max(1.0, min(base, float(self.n + 1)))
            data = base ** self.pair_rank.astype(np.float64)
            self._wbfs_csr = _csr_matrix(
                (data, self.nbr, self.indptr), shape=(self.n, self.n)
            )
        return self._wbfs_csr

    def weighted_distances_to_set(self, sources: np.ndarray) -> np.ndarray:
        """Min port-weighted distance from every node to the source set.

        Arc weights are a function of the arc's pair rank (class-uniform by
        stability), so the result is uniform on every class of the coarsest
        stable partition — same equitable-quotient induction as the
        unweighted case, with Dijkstra's value-order induction in place of
        BFS layers.  Falls back to the unweighted column without scipy (a
        strictly coarser but still sound signal).
        """
        if not HAVE_SCIPY:
            return self._bfs_python(sources)
        dist = _csgraph_dijkstra(
            self._ensure_weighted_bfs(),
            directed=True,
            indices=sources,
            min_only=True,
        )
        # Finite path weights are exact integers < 2^52 by the base choice.
        dist = np.where(np.isfinite(dist), dist, np.float64(2.0**53))
        return dist.astype(np.int64, copy=False)

    def distances_to_set(self, sources: np.ndarray) -> np.ndarray:
        """Min BFS distance from every node to the source set.

        Unreachable nodes (pathological disconnected fixtures) get the
        sentinel ``n + 1``, which is class-uniform in any stable partition
        just like a finite distance.
        """
        n = self.n
        if HAVE_SCIPY:
            # The CSR image already stores both directions of every edge,
            # so directed=True is exact and skips the symmetrization pass.
            dist = _csgraph_dijkstra(
                self._ensure_bfs(),
                directed=True,
                unweighted=True,
                indices=sources,
                min_only=True,
            )
            dist = np.where(np.isfinite(dist), dist, n + 1)
            return dist.astype(np.int64, copy=False)
        return self._bfs_python(sources)

    def _bfs_python(self, sources: np.ndarray) -> np.ndarray:
        if self._py_adjacency is None:
            self._py_adjacency = [
                self.nbr[self.indptr[x] : self.indptr[x + 1]].tolist()
                for x in range(self.n)
            ]
        adjacency = self._py_adjacency
        dist = [self.n + 1] * self.n
        queue: List[int] = []
        for s in sources.tolist():
            dist[s] = 0
            queue.append(s)
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            dx = dist[x] + 1
            for y in adjacency[x]:
                if dist[y] > dx:
                    dist[y] = dx
                    queue.append(y)
        return np.asarray(dist, dtype=np.int64)


def flat_network(network: Any) -> FlatNetwork:
    """The memoized flat image of a network (built once, shared)."""
    return _cache.memo(network, "flat_network", None, lambda: FlatNetwork(network))


# ----------------------------------------------------------------------
# Vectorized view refinement
# ----------------------------------------------------------------------


def _rank_rows(rows: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense ids by lexicographic row order (the equivariant re-ranking)."""
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniq)


def _rank1d(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense ids by value order for one column (the 1-D fast path)."""
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniq)


def _rank_cols(
    comb: np.ndarray, num: int, cols: Any
) -> Tuple[np.ndarray, int]:
    """Dense ids by lexicographic order of the rows ``(comb, *cols)``.

    ``comb`` must already be dense (values in ``[0, num)``).  Each column is
    folded in with one order-preserving integer pack — ``comb · span + col``
    — and a 1-D re-rank.  Packing is strictly monotone in ``(comb, col)``
    lexicographic order, so by induction the result equals the row rank of
    the full matrix, while each pass sorts plain ``int64`` keys instead of
    ``np.unique(axis=0)``'s void-dtype records (severalfold faster on the
    narrow rows every refinement round produces).
    """
    for col in cols:
        if not len(col):
            continue
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if num * span > _PACK_LIMIT:  # pragma: no cover - astronomic spans
            comb, num = _rank_rows(np.column_stack((comb, col)))
            continue
        comb, num = _rank1d(comb * np.int64(span) + (col - np.int64(lo)))
    return comb, num


def _one_round(flat: FlatNetwork, cls: np.ndarray, num: int) -> Tuple[np.ndarray, int]:
    """One synchronized signature round: returns re-ranked (cls, count)."""
    trip = flat.pair_rank * np.int64(num) + cls[flat.nbr]
    if flat.regular_degree is not None:
        mat = np.sort(trip.reshape(flat.n, flat.regular_degree), axis=1)
    else:
        mat = np.full((flat.n, flat.max_degree), _PAD, dtype=np.int64)
        order = np.lexsort((trip, flat.owner))
        # ``owner`` is already sorted, so the reordered trips stay grouped
        # by owner and land at their in-segment rank; the -1 pad sorts
        # before every trip, which is the shorter-tuple-first rule.
        mat[flat.owner, flat.col] = trip[order]
    return _rank_cols(cls, num, mat.T)


def _accelerate(
    flat: FlatNetwork,
    cls: np.ndarray,
    num: int,
    used_sources: Set[bytes],
) -> Tuple[np.ndarray, int]:
    """Refine by BFS distances to up to ``ACCEL_SOURCES`` classes.

    Classes are chosen by ascending (size, class id) — a class-level,
    node-index-free criterion, so the choice is equivariant across
    isomorphic copies.  Each chosen class contributes one multi-source
    min-distance column, folded into the dense ranking as soon as it is
    computed (so a refinement that goes discrete mid-way skips the
    remaining BFS runs).  Classes holding more than half the nodes are
    skipped: their distance columns are near-constant, and skipping by
    size alone keeps the choice equivariant.  Soundness: every class of
    the coarsest stable partition has uniform distance to any class of the
    current (coarser) partition, so this splits no class that the fixpoint
    keeps together — and skipping sources only forgoes splits the plain
    rounds recover later.
    """
    base = cls  # source classes come from the *entry* partition throughout
    sizes = np.bincount(base, minlength=num)
    order = np.lexsort((np.arange(num, dtype=np.int64), sizes))
    half = flat.n // 2
    picked = 0
    fruitless = 0
    for cid in order:
        if picked >= ACCEL_SOURCES or num >= flat.n or fruitless >= 2:
            break
        if sizes[cid] > half:
            break  # order is ascending by size: all remaining are bigger
        members = np.flatnonzero(base == cid)
        key = members.tobytes()
        if key in used_sources:
            continue
        used_sources.add(key)
        picked += 1
        before = num
        cls, num = _rank_cols(
            cls, num, (flat.weighted_distances_to_set(members),)
        )
        # Split counts are class-level data, so bailing after two
        # fruitless sources is as equivariant as the source choice itself.
        fruitless = fruitless + 1 if num == before else 0
    return cls, num


def refine_numpy(network: Any, colors: Sequence[int]) -> List[int]:
    """The coarsest signature-stable partition, as vectorized array passes.

    ``colors`` must already be normalized to ints (the views layer's
    ``_normalize_colors`` contract).  Returns dense, equivariant class ids:
    every ordering decision is made on (class id, signature, size) only.
    Partition-equal to ``_refine_worklist`` and
    ``view_refinement_baseline``; the numbering is its own (each backend's
    numbering is canonical — only the partition is cross-backend contract).
    """
    n = network.num_nodes
    if n <= 1:
        return [0] * n
    flat = flat_network(network)
    if flat.n * (flat.max_degree + 1) > DENSE_LIMIT:
        # Hub-dominated irregular graph: the padded signature matrix would
        # not fit; the worklist is the better algorithm there anyway.
        from ..graphs.views import _refine_worklist

        return _refine_worklist(network, list(colors))
    cls, num = _rank1d(np.asarray(colors, dtype=np.int64))
    used_sources: Set[bytes] = set()
    accel_left = ACCEL_BUDGET
    while num < n:
        before = num
        if accel_left:
            accel_left -= 1
            cls, num = _accelerate(flat, cls, num, used_sources)
            if num >= n:
                break
        cls, num = _one_round(flat, cls, num)
        if num == before:
            break  # refinement only splits: equal count ⇒ fixpoint
    return cls.tolist()


# ----------------------------------------------------------------------
# Vectorized digraph refinement (exact-parity with the Python reference)
# ----------------------------------------------------------------------


class DigraphKernel:
    """Flat buffers for one :class:`~repro.graphs.canonical.Digraph`.

    Prebuilt once per individualization–refinement search and reused by
    every refinement in the recursion (the search re-refines the same
    digraph hundreds of times with different initial cells).
    """

    __slots__ = (
        "n",
        "out_idx",
        "out_owner",
        "out_col",
        "max_out",
        "in_idx",
        "in_owner",
        "in_col",
        "max_in",
    )

    def __init__(self, g: Any):
        n = g.num_nodes
        self.n = n

        def build(neighbor_sets: Sequence[Any]) -> Tuple[np.ndarray, ...]:
            degrees = np.fromiter(
                (len(s) for s in neighbor_sets), dtype=np.int64, count=n
            )
            total = int(degrees.sum())
            idx = np.empty(total, dtype=np.int64)
            pos = 0
            for s in neighbor_sets:
                for y in s:
                    idx[pos] = y
                    pos += 1
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
            col = np.arange(total, dtype=np.int64) - indptr[owner]
            return idx, owner, col, int(degrees.max()) if n else 0

        self.out_idx, self.out_owner, self.out_col, self.max_out = build(g.out_edges)
        self.in_idx, self.in_owner, self.in_col, self.max_in = build(g.in_edges())

    def refine(self, initial: Sequence[int]) -> List[int]:
        """Exact vectorized replica of ``digraph_refinement``.

        Signature rows are ``[class | sorted out-classes | sorted
        in-classes]`` with ``-1`` padding; padded lexicographic row order
        equals the Python ``(class, out tuple, in tuple)`` order (the pad
        sorts before every id, which is the shorter-tuple-first rule), so
        each round's dense ranking — and hence the final numbering — is
        identical to the reference.  The initial coloring is re-ranked to
        dense ids first: the re-rank is monotone, so it keeps the
        reference's tuple order, and it keeps every id above the pad even
        when the caller's colors are negative.
        """
        n = self.n
        cls, num = _rank1d(np.asarray(list(initial), dtype=np.int64))
        mat = np.empty((n, self.max_out + self.max_in), dtype=np.int64)
        while True:
            mat[:] = _PAD
            if len(self.out_idx):
                vals = cls[self.out_idx]
                order = np.lexsort((vals, self.out_owner))
                mat[self.out_owner, self.out_col] = vals[order]
            if len(self.in_idx):
                vals = cls[self.in_idx]
                order = np.lexsort((vals, self.in_owner))
                mat[self.in_owner, self.in_col + self.max_out] = vals[order]
            new_cls, new_num = _rank_cols(cls, num, mat.T)
            if new_num == num:
                # No class split, so the re-rank reproduced ``cls``.
                return cls.tolist()
            cls, num = new_cls, new_num


# ----------------------------------------------------------------------
# Vectorized surroundings support
# ----------------------------------------------------------------------


def surrounding_arcs_numpy(network: Any, u: int) -> List[Tuple[int, int]]:
    """The Definition 3.1 arc list of ``S(u)``, via flat-array BFS.

    Same arc *set* as the per-edge Python loop (Digraph.build collapses
    duplicates into frozensets, so ordering differences are invisible).
    """
    flat = flat_network(network)
    dist = flat.distances_to_set(np.asarray([u], dtype=np.int64))
    du = dist[flat.edge_u]
    dv = dist[flat.edge_v]
    forward = du <= dv
    backward = dv <= du
    arcs: List[Tuple[int, int]] = []
    eu, ev = flat.edge_u, flat.edge_v
    arcs.extend(zip(eu[forward].tolist(), ev[forward].tolist()))
    arcs.extend(zip(ev[backward].tolist(), eu[backward].tolist()))
    return arcs
