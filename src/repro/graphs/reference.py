"""Sequential reference algorithms (ground truth for every distributed result).

The distributed algorithms in :mod:`repro.core` are validated against these
centralised computations: exact single-source / all-pairs distances, hop
distances, hop-limited distances, shortest paths, weighted and hop diameters,
eccentricities and shortest-path diameters.  They are the one oracle in tests
and in the approximation-ratio measurements of DESIGN.md §5 (the CSR
kernels of :mod:`repro.graphs.csr` are the one production path), so they are
written for clarity rather than speed: textbook heapq Dijkstra, BFS and
Bellman-Ford over adjacency lists rebuilt from ``graph.edges()``, sharing no
code with the traversal kernels they check.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Mapping, Sequence

from repro.graphs.graph import INFINITY, WeightedGraph


def _edge_list_adjacency(graph: WeightedGraph) -> list[list[tuple[int, int]]]:
    """``(neighbour, weight)`` lists rebuilt from ``graph.edges()`` alone.

    The oracles below walk these lists rather than the CSR view, so they
    share no code with the kernels they check.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(graph.node_count)]
    for u, v, w in graph.edges():
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    return adjacency


def _dijkstra(adjacency: list[list[tuple[int, int]]], source: int) -> dict[int, float]:
    """Textbook heapq Dijkstra: ``{node: d(source, node)}`` for every reachable node, by ID."""
    if not 0 <= source < len(adjacency):
        raise ValueError(f"node {source} outside [0, {len(adjacency)})")
    settled: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        distance, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = distance
        for v, w in adjacency[u]:
            if v not in settled:
                heapq.heappush(heap, (distance + w, v))
    return dict(sorted(settled.items()))


def single_source_distances(graph: WeightedGraph, source: int) -> dict[int, float]:
    """Exact weighted distances from ``source`` to every reachable node."""
    return _dijkstra(_edge_list_adjacency(graph), source)


def multi_source_distances(
    graph: WeightedGraph, sources: Sequence[int]
) -> dict[int, dict[int, float]]:
    """Exact distances from every source: ``result[s][v] = d(s, v)`` (one Dijkstra each)."""
    adjacency = _edge_list_adjacency(graph)
    return {source: _dijkstra(adjacency, source) for source in sources}


def all_pairs_distances(graph: WeightedGraph) -> dict[int, dict[int, float]]:
    """Exact APSP by running Dijkstra from every node."""
    return multi_source_distances(graph, list(graph.nodes()))


def hop_limited_distances(graph: WeightedGraph, source: int, hop_limit: int) -> dict[int, float]:
    """``d_h(source, ·)`` (Section 1.3): the cheapest walk using at most ``hop_limit`` edges.

    Textbook synchronous Bellman-Ford over ``graph.edges()``: round ``i``
    relaxes every edge in both directions from the values of round ``i - 1``,
    so after round ``i`` each value is the cheapest walk of at most ``i``
    edges.  A round that changes nothing is a fixpoint and ends the loop.
    Nodes with ``d_h = ∞`` are absent from the result.
    """
    n = graph.node_count
    if not 0 <= source < n:
        raise ValueError(f"node {source} outside [0, {n})")
    if hop_limit < 0:
        raise ValueError("hop_limit must be non-negative")
    edges = list(graph.edges())
    distance = [INFINITY] * n
    distance[source] = 0.0
    for _ in range(hop_limit):
        previous, distance = distance, list(distance)
        for u, v, w in edges:
            distance[v] = min(distance[v], previous[u] + w)
            distance[u] = min(distance[u], previous[v] + w)
        if distance == previous:
            break
    return {node: value for node, value in enumerate(distance) if value != INFINITY}


def _bfs(
    adjacency: list[list[tuple[int, int]]], source: int, max_hops: int | None = None
) -> dict[int, int]:
    """Textbook queue BFS: ``{node: hop(source, node)}`` within ``max_hops`` hops."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if hops[u] == max_hops:
            continue
        for v, _ in adjacency[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def hop_distances(graph: WeightedGraph, source: int, max_hops: int | None = None) -> dict[int, int]:
    """``hop(source, ·)`` (Section 1.3) for every node within ``max_hops`` hops.

    The whole component when ``max_hops`` is None; unreached nodes are
    absent from the result.
    """
    if not 0 <= source < graph.node_count:
        raise ValueError(f"node {source} outside [0, {graph.node_count})")
    if max_hops is not None and max_hops < 0:
        raise ValueError("max_hops must be non-negative")
    return _bfs(_edge_list_adjacency(graph), source, max_hops)


def _hop_eccentricity(adjacency: list[list[tuple[int, int]]], source: int) -> float:
    """The largest hop distance from ``source`` (``inf`` when some node is unreached)."""
    hops = _bfs(adjacency, source)
    if len(hops) != len(adjacency):
        return INFINITY
    return float(max(hops.values()))


def eccentricity(graph: WeightedGraph, node: int, weighted: bool = False) -> float:
    """Eccentricity ``e(v) = max_u d(v, u)`` (weighted or in hops)."""
    if not 0 <= node < graph.node_count:
        raise ValueError(f"node {node} outside [0, {graph.node_count})")
    if not weighted:
        return _hop_eccentricity(_edge_list_adjacency(graph), node)
    distances = _dijkstra(_edge_list_adjacency(graph), node)
    if len(distances) != graph.node_count:
        return INFINITY
    return max(distances.values())


def hop_diameter(graph: WeightedGraph) -> float:
    """The paper's diameter ``D(G) = max_{u,v} hop(u, v)`` (Section 1.3).

    One BFS per node over the edge list (``inf`` if the graph is
    disconnected).
    """
    adjacency = _edge_list_adjacency(graph)
    return max(_hop_eccentricity(adjacency, source) for source in range(len(adjacency)))


def weighted_diameter(graph: WeightedGraph) -> float:
    """The weighted diameter ``max_{u,v} d(u, v)`` used in Section 7."""
    best = 0.0
    adjacency = _edge_list_adjacency(graph)
    for source in graph.nodes():
        distances = _dijkstra(adjacency, source)
        if len(distances) != graph.node_count:
            return INFINITY
        best = max(best, max(distances.values()))
    return best


def shortest_path_diameter(graph: WeightedGraph) -> int:
    """The shortest-path diameter ``SPD``: max hop count of any shortest path.

    This is the parameter in the ``Õ(√SPD)`` SSSP algorithm of Augustine et
    al. that Theorem 1.3 improves on for graphs where ``SPD`` is large.  For
    each source we run a Dijkstra variant that tracks, per node, the minimum
    number of hops over all minimum-weight paths.
    """
    adjacency = _edge_list_adjacency(graph)
    spd = 0
    for source in graph.nodes():
        hops, _ = _min_hop_shortest_paths(adjacency, source)
        if hops:
            spd = max(spd, max(hops.values()))
    return spd


def shortest_path(graph: WeightedGraph, source: int, target: int) -> list[int] | None:
    """One shortest weighted ``source``-``target`` path with the fewest hops.

    The nodes from ``source`` to ``target``; None when they are disconnected.
    Among several fewest-hop shortest paths, the heap order ``(distance,
    hops, node)`` picks one deterministically.
    """
    n = graph.node_count
    for node in (source, target):
        if not 0 <= node < n:
            raise ValueError(f"node {node} outside [0, {n})")
    _, parent = _min_hop_shortest_paths(_edge_list_adjacency(graph), source)
    if target not in parent:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[::-1]


def _min_hop_shortest_paths(
    adjacency: list[list[tuple[int, int]]], source: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Dijkstra on ``(distance, hops)``: the fewest hops among all shortest paths.

    Returns ``hops[v]`` and the ``parent[v]`` of ``v`` on one such path
    (``parent[source] = source``).  Weights are positive, so a node's
    ``(distance, hops)`` and parent never change after it is settled.
    """
    dist: dict[int, float] = {source: 0.0}
    hops: dict[int, int] = {source: 0}
    parent: dict[int, int] = {source: source}
    heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
    settled: dict[int, int] = {}
    while heap:
        d, h, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = h
        for v, w in adjacency[u]:
            nd = d + w
            nh = h + 1
            known = dist.get(v, INFINITY)
            if nd < known or (nd == known and nh < hops.get(v, 1 << 60)):
                dist[v] = nd
                hops[v] = nh
                parent[v] = u
                heapq.heappush(heap, (nd, nh, v))
    return settled, parent


def max_stretch(
    expected: Mapping[int, float], actual: Mapping[int, float], keys: Iterable[int] | None = None
) -> float:
    """Largest ratio ``actual / expected`` over ``keys`` (ignoring zero distances).

    The paper's approximation guarantees are one-sided (``d <= d̃ <= α d + β``);
    benchmarks report this multiplicative stretch together with
    :func:`has_one_sided_error`.
    """
    if keys is None:
        keys = expected.keys()
    worst = 1.0
    for key in keys:
        e = expected.get(key, INFINITY)
        a = actual.get(key, INFINITY)
        if e in (0.0, INFINITY):
            continue
        if a == INFINITY:
            return INFINITY
        worst = max(worst, a / e)
    return worst


def has_one_sided_error(
    expected: Mapping[int, float],
    actual: Mapping[int, float],
    keys: Iterable[int] | None = None,
    tolerance: float = 1e-9,
) -> bool:
    """Check the paper's approximation contract: estimates never undershoot."""
    if keys is None:
        keys = expected.keys()
    for key in keys:
        e = expected.get(key, INFINITY)
        a = actual.get(key, INFINITY)
        if a == INFINITY:
            continue
        if e == INFINITY:
            return False
        if a < e - tolerance:
            return False
    return True
