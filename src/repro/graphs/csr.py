"""Compressed-sparse-row (CSR) arrays and batched multi-source traversal kernels.

The simulation's hot loops are all of the shape *"run one traversal from every
node"*: the depth-``h`` exploration of Compute-Skeleton (Algorithm 6) runs a
hop-limited distance computation from all ``n`` sources, the diameter
algorithm measures a bounded eccentricity per node, and the reference oracles
run Dijkstra per source.  Doing these one Python-level traversal at a time is
what capped experiments at a few hundred nodes.

This module stores the graph once as frozen CSR numpy arrays and provides
*batched multi-source* kernels over them:

* :func:`bfs_level_matrix` -- hop levels from many sources, via the C
  implementation of :func:`scipy.sparse.csgraph.dijkstra` (unweighted);
* :func:`hop_limited_matrix` -- ``hop_limit`` rounds of synchronous
  Bellman-Ford, i.e. the paper's *literal* ``d_h`` (Section 1.3), as numpy
  scatter-min rounds (BFS levels when every weight is 1); and
* :func:`distance_matrix` -- exact weighted distances via
  :func:`scipy.sparse.csgraph.dijkstra`.

All kernels are exact and deterministic: edge weights are positive integers,
so every distance is an exact float64 sum along a single path and equals the
single-source pure-Python traversals of
:class:`~repro.graphs.graph.WeightedGraph` bit for bit (the kernel tests pin
this).  :class:`~repro.graphs.graph.WeightedGraph` freezes a
:class:`CSRAdjacency` on first batched traversal and invalidates it on
``add_edge`` / ``remove_edge``.
"""

from __future__ import annotations

from collections.abc import Sequence

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

    __slots__ = ("n", "indptr", "indices", "weights", "unit_weights", "sparse_view")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # Lazily built scipy.sparse.csr_matrix over these same arrays (see
        # _scipy_view); the adjacency is frozen, so the view never goes stale.
        self.sparse_view = None
        # With unit weights d_h degenerates to BFS levels, which the weighted
        # kernels exploit as a fast path.
        self.unit_weights = bool((weights == 1.0).all()) if weights.size else True

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
    put it in (``unit_weights`` is re-derived from the patched array).
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


def hop_limited_matrix(csr: CSRAdjacency, sources: Sequence[int], hop_limit: int) -> np.ndarray:
    """``dist[s, v] = d_{hop_limit}(source_s, v)`` (``inf`` outside the ball)."""
    if csr.unit_weights:
        return _levels_as_distances(bfs_level_matrix(csr, sources, hop_limit))
    return _relax_rounds(csr, sources, hop_limit)


def distance_matrix(csr: CSRAdjacency, sources: Sequence[int]) -> np.ndarray:
    """Exact weighted distances from every source (``inf`` when disconnected)."""
    if csr.unit_weights:
        return _levels_as_distances(bfs_level_matrix(csr, sources, None))
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size == 0:
        return np.empty((0, csr.n), dtype=np.float64)
    return csgraph.dijkstra(_scipy_view(csr), indices=src)


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
    budget = CHUNK_BYTES if byte_budget is None else byte_budget
    cells = max(1, budget // (8 * _SCRATCH_FACTOR))
    chunk = max(1, cells // max(1, n))
    if len(sources) <= chunk:
        return [sources]
    return [sources[i : i + chunk] for i in range(0, len(sources), chunk)]


def rows_to_dicts(matrix: np.ndarray, cast) -> list[dict]:
    """Convert kernel output rows to ``{reached node: value}`` dicts."""
    result: list[dict] = []
    for row in matrix:
        if row.dtype == np.int64:
            reached = np.flatnonzero(row >= 0)
        else:
            reached = np.flatnonzero(np.isfinite(row))
        values = row[reached]
        result.append(dict(zip(reached.tolist(), map(cast, values.tolist()), strict=True)))
    return result
