"""Compressed-sparse-row (CSR) arrays and batched multi-source traversal kernels.

The simulation's hot loops are all of the shape *"run one traversal from every
node"*: the depth-``h`` exploration of Compute-Skeleton (Algorithm 6) runs a
hop-limited distance computation from all ``n`` sources, and the reference
oracles run Dijkstra per source.  Doing these one Python-level traversal at a time is
what capped experiments at a few hundred nodes.

This module stores the graph once as frozen CSR numpy arrays and provides
*batched multi-source* kernels over them:

* :func:`bfs_level_matrix` -- hop levels from many sources, via the C
  implementation of :func:`scipy.sparse.csgraph.dijkstra` (unweighted);
* :func:`hop_limited_matrix` -- the paper's *literal* ``d_h`` (Section 1.3):
  one bounded :func:`scipy.sparse.csgraph.dijkstra` call per chunk plus the
  per-row hop certificate (:func:`certified_rows`), with numpy synchronous
  Bellman-Ford rounds (:func:`_relax_rounds`) only on the rows the
  certificate cannot settle (BFS levels when every weight is 1); and
* :func:`distance_matrix` -- exact weighted distances via
  :func:`scipy.sparse.csgraph.dijkstra`; and
* :func:`hop_diameter` -- the exact hop diameter ``D(G)`` by eccentricity
  bounding (Takes & Kosters, "BoundingDiameters", 2011): batches of scipy
  BFS searches, each of which tightens a lower and an upper bound on every
  node's eccentricity, until no unsearched node's upper bound exceeds the
  largest lower bound.  That stopping rule makes the answer exact, not a
  heuristic.  Most graphs need a few dozen searches; on vertex-transitive
  graphs (cycles, complete graphs) no bound ever settles a node, every node
  is searched once, and the cost matches one all-sources pass.
* :func:`ruler_clustering` -- the LOCAL-phase outcome of Lemma 2.1 and
  Algorithm 1: a greedy ruling set and every node's closest ruler, from one
  level-synchronous multi-source BFS.

All kernels are exact and deterministic: edge weights are positive integers,
so every distance is an exact float64 sum along a single path and equals the
edge-list oracles of :mod:`repro.graphs.reference` bit for bit (the kernel
tests pin this).  The same exactness is why a certified Dijkstra row and a
relaxation row are interchangeable: both hold the same sums.
:class:`~repro.graphs.graph.WeightedGraph` freezes a :class:`CSRAdjacency` on
first batched traversal and invalidates it on ``add_edge`` /
``remove_edge``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

#: Per-chunk memory budget in bytes.  Sources are processed ``chunk`` at a
#: time so a batched call over all ``n`` sources never allocates more than
#: roughly this much scratch at once.
CHUNK_BYTES = 128 * 1024 * 1024

#: A relaxation round materialises a few same-shaped float64 scratch arrays
#: (candidates, keys, the chunk matrix itself); the budget is divided by this
#: factor so peak allocation stays near the budget rather than several times
#: over it.
_SCRATCH_FACTOR = 4


class CSRAdjacency:
    """Frozen CSR view of an undirected weighted graph.

    ``indices[indptr[u]:indptr[u+1]]`` are the neighbours of ``u`` (sorted by
    ID for determinism) and ``weights`` the matching edge weights.  Because
    the graph is undirected the same arrays serve as both the out- and
    in-adjacency, which is what the relaxation kernels rely on.
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "weights",
        "unit_weights",
        "min_weight",
        "sparse_view",
        "component_sizes",
    )

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # Lazily built scipy.sparse.csr_matrix over these same arrays (see
        # _scipy_view); the adjacency is frozen, so the view never goes stale.
        self.sparse_view = None
        # Lazily computed size of each node's connected component (see
        # component_sizes); frozen with the topology like the scipy view.
        self.component_sizes = None
        # With unit weights d_h degenerates to BFS levels, which the weighted
        # kernels exploit as a fast path.
        self.unit_weights = bool((weights == 1.0).all()) if weights.size else True
        # The hop certificate of hop_limited_matrix: a path of weight d has at
        # most d / min_weight edges (1.0 for an edgeless graph).
        self.min_weight = float(weights.min()) if weights.size else 1.0

    @property
    def directed_edge_count(self) -> int:
        """Number of directed edges stored (``2m`` for an undirected graph)."""
        return int(self.indices.shape[0])


def build_csr(adjacency: Sequence[dict]) -> CSRAdjacency:
    """Freeze a dict-of-dicts adjacency into CSR arrays."""
    n = len(adjacency)
    degrees = np.fromiter((len(adj) for adj in adjacency), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.empty(total, dtype=np.int64)
    weights = np.empty(total, dtype=np.float64)
    position = 0
    for adj in adjacency:
        if not adj:
            continue
        neighbours = sorted(adj)
        stop = position + len(neighbours)
        indices[position:stop] = neighbours
        weights[position:stop] = [adj[v] for v in neighbours]
        position = stop
    return CSRAdjacency(n, indptr, indices, weights)


def refresh_weight(csr: CSRAdjacency, u: int, v: int, weight: float) -> CSRAdjacency:
    """A CSR view with one undirected edge's weight replaced in place.

    A weight-only mutation leaves ``indptr``/``indices`` (the frozen
    topology) valid, so the refreshed view *shares* them and only copies and
    patches the weight array -- ``O(m)`` array work instead of the
    Python-loop re-freeze of :func:`build_csr`.  The result is bit-identical
    to re-freezing the mutated adjacency: per-row neighbour order is
    unchanged, so the new weight lands in exactly the slot a rebuild would
    put it in (``unit_weights`` and ``min_weight`` are re-derived from the
    patched array).
    """
    weights = csr.weights.copy()
    for a, b in ((u, v), (v, u)):
        start, stop = int(csr.indptr[a]), int(csr.indptr[a + 1])
        position = start + int(np.searchsorted(csr.indices[start:stop], b))
        if position >= stop or int(csr.indices[position]) != b:
            raise KeyError(f"edge {{{u}, {v}}} not present in the CSR view")
        weights[position] = float(weight)
    return CSRAdjacency(csr.n, csr.indptr, csr.indices, weights)


def _scipy_view(csr: CSRAdjacency):
    """The cached ``scipy.sparse.csr_matrix`` view of a frozen adjacency.

    Built once per :class:`CSRAdjacency`; the adjacency is immutable after
    construction (mutation drops the whole view), so the cache never goes
    stale.
    """
    view = csr.sparse_view
    if view is None:
        view = sparse.csr_matrix((csr.weights, csr.indices, csr.indptr), shape=(csr.n, csr.n))
        csr.sparse_view = view
    return view


def component_sizes(csr: CSRAdjacency) -> np.ndarray:
    """``sizes[v]``: the number of nodes in ``v``'s connected component (cached)."""
    sizes = csr.component_sizes
    if sizes is None:
        _, labels = csgraph.connected_components(_scipy_view(csr), directed=False)
        sizes = np.bincount(labels)[labels]
        csr.component_sizes = sizes
    return sizes


def _gather_edges(csr: CSRAdjacency, cols: np.ndarray):
    """Positions into ``csr.indices`` of all edges leaving ``cols``, plus counts.

    This is the standard vectorised multi-slice: for frontier nodes ``cols``
    the concatenation of their CSR rows is ``indices[flat]`` without any
    Python-level loop.
    """
    starts = csr.indptr[cols]
    counts = csr.indptr[cols + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    boundaries = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - np.concatenate(([0], boundaries[:-1])), counts)
    return flat, counts


def bfs_level_matrix(
    csr: CSRAdjacency, sources: Sequence[int], max_hops: int | None = None
) -> np.ndarray:
    """Hop distances from every source at once (``-1`` marks unreached nodes).

    Returns an ``(S, n)`` int64 matrix; nodes more than ``max_hops`` hops away
    count as unreached.
    """
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size == 0:
        return np.empty((0, csr.n), dtype=np.int64)
    limit = csr.n if max_hops is None else max_hops
    hops = csgraph.dijkstra(_scipy_view(csr), indices=src, unweighted=True, limit=limit)
    levels = np.full(hops.shape, -1, dtype=np.int64)
    reached = np.isfinite(hops)
    levels[reached] = hops[reached].astype(np.int64)
    return levels


def _relax_rounds(csr: CSRAdjacency, sources: Sequence[int], max_rounds: int) -> np.ndarray:
    """Synchronous Bellman-Ford rounds from every source at once.

    After ``k`` iterations ``dist[s, v]`` is the minimum weight of any walk
    from ``s`` to ``v`` using at most ``k`` edges -- exactly ``d_k`` from
    Section 1.3.  Only nodes whose value improved in the previous round are
    relaxed again (their earlier relaxations already reached every
    neighbour), which keeps each round's work proportional to the active
    frontier.

    This is the literal definition of ``d_h``; :func:`hop_limited_matrix`
    runs it only on the rows its hop certificate cannot settle.
    """
    n = csr.n
    src = np.asarray(list(sources), dtype=np.int64)
    count = src.shape[0]
    dist = np.full((count, n), np.inf)
    source_rows = np.arange(count, dtype=np.int64)
    dist[source_rows, src] = 0.0
    frontier_rows, frontier_cols = source_rows, src.copy()
    rounds = 0
    while frontier_cols.size and rounds < max_rounds:
        rounds += 1
        frontier_values = dist[frontier_rows, frontier_cols]
        flat, counts = _gather_edges(csr, frontier_cols)
        if flat.size == 0:
            break
        rows = np.repeat(frontier_rows, counts)
        cols = csr.indices[flat]
        candidates = np.repeat(frontier_values, counts) + csr.weights[flat]
        # Scatter-min of candidates into dist[rows, cols]: sort by target cell,
        # reduce each group to its minimum, and keep only strict improvements.
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        candidates = candidates[order]
        group_starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
        group_keys = keys[group_starts]
        group_minima = np.minimum.reduceat(candidates, group_starts)
        rows = group_keys // n
        cols = group_keys - rows * n
        improved = group_minima < dist[rows, cols]
        rows, cols = rows[improved], cols[improved]
        dist[rows, cols] = group_minima[improved]
        frontier_rows, frontier_cols = rows, cols
    return dist


def _levels_as_distances(levels: np.ndarray) -> np.ndarray:
    """BFS levels to float distances (``-1`` becomes ``inf``)."""
    dist = levels.astype(np.float64)
    dist[levels < 0] = np.inf
    return dist


def certified_rows(
    csr: CSRAdjacency, sources: Sequence[int], dist: np.ndarray, hop_limit: int
) -> np.ndarray:
    """The hop certificate: which ``d_{hop_limit}`` rows equal exact distances.

    ``dist[i]`` is a ``d_{hop_limit}`` row of ``sources[i]`` on ``csr``.  The
    row is certified iff it is finite on exactly the nodes of the source's
    connected component and its largest finite value is at most
    ``hop_limit * min_weight``: a path of weight ``d`` has at most
    ``d / min_weight`` edges, so every distance of the row is realised within
    the hop limit and ``d_h = d`` on the whole row.  This is the one
    definition :func:`hop_limited_matrix` settles rows with, the skeleton
    exploration caches and APSP's combination step reads; it is a function
    of the row values, so equal rows give equal masks.
    """
    src = np.asarray(sources, dtype=np.int64)
    finite = np.isfinite(dist)
    reached = np.count_nonzero(finite, axis=1)
    largest = np.max(dist, axis=1, where=finite, initial=0.0)
    return (reached == component_sizes(csr)[src]) & (largest <= hop_limit * csr.min_weight)


def hop_limited_matrix(csr: CSRAdjacency, sources: Sequence[int], hop_limit: int) -> np.ndarray:
    """``dist[s, v] = d_{hop_limit}(source_s, v)`` (``inf`` outside the ball).

    Unit weights reduce ``d_h`` to BFS levels.  Otherwise one Dijkstra call
    computes, per source, the exact distances ``d`` up to the bound
    ``hop_limit * min_weight``.  A shortest path is simple and each of its
    ``k`` edges weighs at least ``min_weight``, so ``d <= bound`` implies
    ``k <= hop_limit`` and hence ``d_h = d``.  A row whose bounded search
    reached the source's whole component therefore has no finite ``d`` above
    the bound and *is* its ``d_h`` row (:func:`certified_rows`); unreached
    nodes of other components are ``inf`` in both.  The remaining rows are
    recomputed by :func:`_relax_rounds`.  Weights are integers, so both paths
    produce the same exact float64 sums and the result is bit-identical to
    running the rounds on every row.
    """
    if csr.unit_weights:
        return _levels_as_distances(bfs_level_matrix(csr, sources, hop_limit))
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size == 0:
        return np.empty((0, csr.n), dtype=np.float64)
    dist = csgraph.dijkstra(_scipy_view(csr), indices=src, limit=hop_limit * csr.min_weight)
    uncertified = np.flatnonzero(~certified_rows(csr, src, dist, hop_limit))
    if uncertified.size:
        dist[uncertified] = _relax_rounds(csr, src[uncertified], hop_limit)
    return dist


def distance_matrix(csr: CSRAdjacency, sources: Sequence[int]) -> np.ndarray:
    """Exact weighted distances from every source (``inf`` when disconnected)."""
    if csr.unit_weights:
        return _levels_as_distances(bfs_level_matrix(csr, sources, None))
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size == 0:
        return np.empty((0, csr.n), dtype=np.float64)
    return csgraph.dijkstra(_scipy_view(csr), indices=src)


def _chunk_rows(n: int, byte_budget: int | None = None) -> int:
    """How many ``n``-wide float64 rows fit one chunk's scratch budget."""
    budget = CHUNK_BYTES if byte_budget is None else byte_budget
    cells = max(1, budget // (8 * _SCRATCH_FACTOR))
    return max(1, cells // max(1, n))


def hop_diameter(csr: CSRAdjacency) -> float:
    """``D(G)``, the largest hop distance over all pairs (``inf`` if disconnected).

    Eccentricity bounding (Takes & Kosters 2011).  Every node ``v`` keeps
    bounds ``lower[v] <= ecc(v) <= upper[v]``.  A BFS from ``x`` with
    eccentricity ``e`` gives, by the triangle inequality,
    ``ecc(v) >= max(d(x, v), e - d(x, v))`` and ``ecc(v) <= e + d(x, v)``
    for every ``v`` (and pins ``x`` itself at ``e``).  ``best = max(lower)``
    never exceeds ``D``.  Only an unsearched node with ``upper > best`` can
    still raise it; once none is left, ``D = max(ecc) <= max(upper) <= best``,
    so ``best`` is exactly ``D``.

    Each step searches one batch of such candidates in a single scipy call:
    half with the smallest ``lower`` (central nodes, whose small distances
    tighten ``upper`` everywhere) and half with the largest ``upper``
    (peripheral nodes, likely to raise ``best``).  Batches double in size
    (1, 2, 4, ...) up to the :data:`CHUNK_BYTES` row budget, so a graph
    where every node must be searched (any vertex-transitive graph: no bound
    ever drops below ``e + 1`` off the searched nodes) still costs about one
    all-sources pass instead of ``n`` separate calls.
    """
    n = csr.n
    if component_sizes(csr)[0] != n:
        return np.inf
    view = _scipy_view(csr)
    max_batch = _chunk_rows(n)
    lower = np.zeros(n)
    upper = np.full(n, float(n))
    searched = np.zeros(n, dtype=bool)
    best = 0.0
    batch_size = 1
    while True:
        candidates = np.flatnonzero(~searched & (upper > best))
        if candidates.size == 0:
            return float(best)
        size = min(batch_size, max_batch)
        if candidates.size <= size:
            batch = candidates
        else:
            by_lower = candidates[np.argsort(lower[candidates], kind="stable")]
            by_upper = candidates[np.argsort(-upper[candidates], kind="stable")]
            central = by_lower[: (size + 1) // 2]
            peripheral = by_upper[~np.isin(by_upper, central)][: size - central.size]
            batch = np.concatenate((central, peripheral))
        hops = csgraph.dijkstra(view, indices=batch, unweighted=True)
        searched[batch] = True
        # Bound updates in place on the batch matrix: max(d), max(e - d),
        # then min(e + d) over the batch, per node.
        ecc = hops.max(axis=1)[:, None]
        np.maximum(lower, hops.max(axis=0), out=lower)
        hops -= ecc
        np.maximum(lower, -hops.min(axis=0), out=lower)
        hops += 2 * ecc
        np.minimum(upper, hops.min(axis=0), out=upper)
        best = lower.max()
        batch_size *= 2


class RulerClustering(NamedTuple):
    """A ruling set and the clusters around it (:func:`ruler_clustering`)."""

    #: The rulers, ascending (read-only int64).
    rulers: np.ndarray
    #: ``ruler -> its members, ascending`` (read-only int64), in ruler order.
    members: Mapping[int, np.ndarray]
    #: The largest hop distance from a node to its ruler.
    radius: int


def ruler_clustering(csr: CSRAdjacency, separation: int) -> RulerClustering:
    """Greedy rulers ``separation + 1`` hops apart, and every node's closest ruler.

    The rulers are the greedy maximal independent set of the
    ``separation``-th power graph in ID order: a node becomes a ruler unless
    an earlier ruler lies within ``separation`` hops.  So rulers are pairwise
    more than ``separation`` hops apart and every node has a ruler within
    ``separation`` hops of it -- in every connected component.  The scan is
    sequential (whether a node rules depends on the earlier rulers' balls),
    so it walks the balls in Python over the CSR lists.

    Every node then joins its closest ruler by hops, ties going to the
    smaller ruler ID.  One multi-source BFS advances all rulers a level at a
    time; a node first reached at level ``d`` takes the smallest ruler among
    its frontier neighbours (``np.minimum.at``), which by induction is the
    smallest ruler at hop distance ``d``.
    """
    n = csr.n
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    # reached_by[v]: the last ruler whose ball reached v (-1: none yet).
    reached_by = [-1] * n
    rulers: list[int] = []
    for node in range(n):
        if reached_by[node] >= 0:
            continue
        rulers.append(node)
        reached_by[node] = node
        frontier = [node]
        for _ in range(separation):
            next_frontier = []
            for u in frontier:
                for v in indices[indptr[u] : indptr[u + 1]]:
                    if reached_by[v] != node:
                        reached_by[v] = node
                        next_frontier.append(v)
            if not next_frontier:
                break
            frontier = next_frontier

    ruler_array = np.asarray(rulers, dtype=np.int64)
    owner = np.full(n, n, dtype=np.int64)  # n marks "not reached yet"
    owner[ruler_array] = ruler_array
    frontier = ruler_array
    radius = 0
    while True:
        flat, counts = _gather_edges(csr, frontier)
        neighbours = csr.indices[flat]
        fresh = owner[neighbours] == n
        if not fresh.any():
            break
        neighbours = neighbours[fresh]
        np.minimum.at(owner, neighbours, np.repeat(owner[frontier], counts)[fresh])
        frontier = np.unique(neighbours)
        radius += 1

    order = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=n)[ruler_array]
    order.flags.writeable = False
    ruler_array.flags.writeable = False
    groups = np.split(order, np.cumsum(sizes)[:-1])
    return RulerClustering(
        ruler_array, MappingProxyType(dict(zip(rulers, groups, strict=True))), radius
    )


def chunked_sources(
    n: int, sources: Sequence[int], byte_budget: int | None = None
) -> list[Sequence[int]]:
    """Split a source list so each chunk's scratch stays within a byte budget.

    The chunk size is derived from the budget rather than a fixed cell count:
    ``chunk x n`` float64 cells times the scratch factor must fit in
    ``byte_budget`` (default :data:`CHUNK_BYTES`), so an n = 4096+
    distance-matrix call peaks near the budget instead of materialising a
    multi-GB dense intermediate.  Chunking never changes results -- chunk
    matrices are concatenated -- only the peak allocation.
    """
    sources = list(sources)
    chunk = _chunk_rows(n, byte_budget)
    if len(sources) <= chunk:
        return [sources]
    return [sources[i : i + chunk] for i in range(0, len(sources), chunk)]


def run_chunked(kernel, csr: CSRAdjacency, sources: Sequence[int], *args) -> np.ndarray:
    """Run a matrix kernel over ``sources`` in byte-budgeted chunks.

    Chunk matrices are concatenated, so the result equals one unchunked call
    (:func:`chunked_sources`).
    """
    chunks = [kernel(csr, chunk, *args) for chunk in chunked_sources(csr.n, sources)]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)


def hop_limited_rows(csr: CSRAdjacency, sources: Sequence[int], hop_limit: int) -> np.ndarray:
    """The ``d_{hop_limit}`` rows of ``sources``: :func:`hop_limited_matrix`, chunked.

    The one entry every ``d_h`` consumer goes through, whether it holds the
    live graph (:meth:`WeightedGraph.hop_limited_distance_matrix
    <repro.graphs.graph.WeightedGraph.hop_limited_distance_matrix>`) or a
    frozen snapshot of an earlier version
    (:class:`~repro.localnet.flooding.LimitedExploration`).
    """
    return run_chunked(hop_limited_matrix, csr, sources, hop_limit)

