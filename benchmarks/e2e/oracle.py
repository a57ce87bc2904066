"""Independent oracle: textbook Dijkstra and BFS over a plain edge list.

It shares no code with the system under test.  It reads the graph only
through ``WeightedGraph.edges()`` and imports nothing from ``repro``:
``repro.graphs.reference`` delegates to the production kernels, so it would
check those kernels against themselves.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable

INF = float("inf")


class Oracle:
    """Exact distances on one fixed undirected graph with positive weights."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]) -> None:
        self.n = n
        self.adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, weight in edges:
            self.adjacency[u].append((v, weight))
            self.adjacency[v].append((u, weight))
        self._rows: dict[int, list[float]] = {}

    def distances(self, source: int) -> list[float]:
        """Weighted distances from ``source`` (``inf`` when unreachable)."""
        row = self._rows.get(source)
        if row is not None:
            return row
        row = [INF] * self.n
        row[source] = 0
        heap = [(0, source)]
        while heap:
            distance, u = heapq.heappop(heap)
            if distance > row[u]:
                continue
            for v, weight in self.adjacency[u]:
                candidate = distance + weight
                if candidate < row[v]:
                    row[v] = candidate
                    heapq.heappush(heap, (candidate, v))
        self._rows[source] = row
        return row

    def hops(self, source: int) -> list[float]:
        """Hop distances from ``source`` by BFS (``inf`` when unreachable)."""
        row = [INF] * self.n
        row[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v, _ in self.adjacency[u]:
                if row[v] == INF:
                    row[v] = row[u] + 1
                    queue.append(v)
        return row

    def hop_diameter(self) -> float:
        """The largest hop distance over all pairs (``inf`` if disconnected)."""
        return max(max(self.hops(source)) for source in range(self.n))
