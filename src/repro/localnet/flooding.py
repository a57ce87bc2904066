"""Local-mode exploration primitives ("flood for d rounds").

Every algorithm in the paper contains loops of the form *"for d rounds: v
forwards all information it knows via its incident local edges"*.  After such a
loop each node knows everything initially known by nodes within ``d`` hops.
The helpers here compute those outcomes directly from the graph and charge the
``d`` rounds, per the fidelity policy in DESIGN.md.

All helpers are *batched*: one call computes the outcome for every node at
once through the multi-source kernels of
:class:`~repro.graphs.graph.WeightedGraph` over its frozen CSR view
(:mod:`repro.graphs.csr`).  The kernels compute the flooding loops'
outcome, not their message traffic; the charged rounds are what the
theorems count.  The skeleton's depth-``h`` exploration is the exception to
"every node at once": :func:`explore_limited` charges the rounds and returns
a :class:`LimitedExploration` that computes ``d_h`` rows only when a
consumer reads them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

import numpy as np

from repro.graphs.csr import CSRAdjacency, hop_limited_rows
from repro.hybrid.network import HybridNetwork

T = TypeVar("T")


def explore_hop_distances(
    network: HybridNetwork, depth: int, phase: str = "local-exploration"
) -> list[dict[int, int]]:
    """Every node learns the hop distance to every node within ``depth`` hops.

    Charges ``depth`` local rounds and returns, per node, the mapping
    ``other -> hop(node, other)`` restricted to the ``depth``-hop ball.
    """
    network.charge_local_rounds(depth, phase)
    return network.local_graph.bfs_hops_many(range(network.n), depth)


def explore_limited_distances(
    network: HybridNetwork, depth: int, phase: str = "local-exploration"
) -> list[dict[int, float]]:
    """Every node learns its ``depth``-hop-limited distances (Section 1.3).

    Charges ``depth`` local rounds.  This is the outcome of flooding all graph
    information for ``depth`` rounds and locally computing hop-limited
    distances, which is what Compute-Skeleton (Algorithm 6) and the local
    exploration steps of Algorithms 5 and 9 do.

    The returned values are the paper's *literal* ``d_h``, batched over all
    sources: a source whose exact distances all stay within ``depth`` times
    the minimum edge weight has ``d_h = d`` and is answered by Dijkstra, and
    every other source runs ``depth`` synchronous Bellman-Ford rounds
    (:func:`repro.graphs.csr.hop_limited_matrix`; the values are identical
    either way).
    """
    network.charge_local_rounds(depth, phase)
    return network.local_graph.hop_limited_distances_many(range(network.n), depth)


class LimitedExploration:
    """The outcome of one depth-``h`` exploration, with ``d_h`` rows on demand.

    After the exploration every node knows its ``d_h`` to every node, but
    most consumers read only a few rows: Compute-Skeleton needs the skeleton
    members' rows (Lemma 4.5, Equation (1)), and only the final combination
    step of the exact APSP algorithm reads all ``n``.  So the rounds are
    charged once, by :func:`explore_limited`, and rows are computed when
    they are read.

    Rows describe the graph version the exploration ran on, never the live
    graph: they come from ``snapshot``, the frozen
    :class:`~repro.graphs.csr.CSRAdjacency` of that version.  A snapshot is
    immutable -- a weight update gives the graph a new view with a copied
    weight array, and ``add_edge`` / ``remove_edge`` drop the graph's view
    -- so a row read after a mutation still equals the row the exploration
    would have produced.  ``d_h`` is symmetric (the graph is undirected and
    integer weights make every value an exact float64 sum), so row ``u`` is
    also column ``u``: ``d_h(·, u) = d_h(u, ·)``.

    :meth:`matrix` builds the full ``n × n`` matrix on its first call and
    caches it read-only; :meth:`rows` slices it from then on.
    """

    __slots__ = ("snapshot", "hop_length", "_matrix")

    def __init__(self, snapshot: CSRAdjacency, hop_length: int, matrix=None) -> None:
        self.snapshot = snapshot
        self.hop_length = hop_length
        if matrix is not None:
            matrix.flags.writeable = False
        self._matrix = matrix

    @property
    def materialised(self) -> bool:
        """Whether the full matrix has been built."""
        return self._matrix is not None

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """``rows[i, v] = d_h(sources[i], v)`` as a new ``(len(sources), n)`` array."""
        if self._matrix is not None:
            return self._matrix[list(sources)]
        return hop_limited_rows(self.snapshot, sources, self.hop_length)

    def matrix(self) -> np.ndarray:
        """The read-only ``n × n`` matrix ``M[v, u] = d_h(v, u)`` (built once)."""
        if self._matrix is None:
            self._matrix = hop_limited_rows(self.snapshot, range(self.snapshot.n), self.hop_length)
            self._matrix.flags.writeable = False
        return self._matrix


def explore_limited(
    network: HybridNetwork, depth: int, phase: str = "local-exploration"
) -> LimitedExploration:
    """The depth-``depth`` exploration of :func:`explore_limited_distances`, rows on demand.

    Charges ``depth`` local rounds now and snapshots the local graph; the
    returned :class:`LimitedExploration` computes ``d_depth`` rows from that
    snapshot when a consumer reads them.
    """
    network.charge_local_rounds(depth, phase)
    return LimitedExploration(network.local_graph.csr(), depth)


def flood_values(
    network: HybridNetwork,
    depth: int,
    initial: dict[int, T],
    phase: str = "local-flood",
) -> list[dict[int, T]]:
    """Flood per-node values for ``depth`` rounds.

    ``initial`` maps an origin node to the value it floods.  After the charged
    ``depth`` rounds, each node knows the values of all origins within
    ``depth`` hops; the result is one ``origin -> value`` dict per node.
    """
    network.charge_local_rounds(depth, phase)
    result: list[dict[int, T]] = [dict() for _ in range(network.n)]
    origins = list(initial)
    balls = network.local_graph.balls_many(origins, depth)
    for origin, ball in zip(origins, balls, strict=True):
        value = initial[origin]
        for reached in ball:
            result[reached][origin] = value
    return result


def flood_token_sets(
    network: HybridNetwork,
    depth: int,
    initial: dict[int, Sequence[T]],
    phase: str = "local-flood",
) -> list[list[T]]:
    """Flood *collections* of tokens for ``depth`` rounds.

    Like :func:`flood_values` but each origin contributes a list of tokens and
    each node receives the concatenation over all origins in its ball.  Used
    when helpers flood the tokens they hold back to their sender/receiver.
    """
    network.charge_local_rounds(depth, phase)
    result: list[list[T]] = [list() for _ in range(network.n)]
    origins = [origin for origin, tokens in initial.items() if tokens]
    balls = network.local_graph.balls_many(origins, depth)
    for origin, ball in zip(origins, balls, strict=True):
        tokens = initial[origin]
        for reached in ball:
            result[reached].extend(tokens)
    return result


def multi_source_hop_distances(
    network: HybridNetwork,
    sources: Sequence[int],
    depth: int | None = None,
) -> dict[int, tuple]:
    """Closest source (by hops, ties by smaller source ID) for every node.

    Returns ``node -> (hop_distance, source)`` for every node reached within
    ``depth`` hops (or anywhere, when ``depth`` is None).  No rounds are
    charged -- callers charge the surrounding protocol loop themselves.
    This is the "join the cluster of the closest ruler" step of Algorithm 1.
    """
    graph = network.local_graph  # hoisted: the view cannot change mid-call
    assignment: dict[int, tuple] = {}
    frontier: list[int] = []
    for source in sorted(sources):
        if source not in assignment:
            assignment[source] = (0, source)
            frontier.append(source)
    hops = 0
    while frontier and (depth is None or hops < depth):
        hops += 1
        next_frontier: list[int] = []
        for node in frontier:
            _, source = assignment[node]
            for neighbour in graph.neighbors(node):
                candidate = (hops, source)
                if neighbour not in assignment or candidate < assignment[neighbour]:
                    if neighbour not in assignment:
                        next_frontier.append(neighbour)
                    assignment[neighbour] = candidate
        frontier = next_frontier
    return assignment


def converge_cast_max(
    network: HybridNetwork,
    values: dict[int, float],
    depth: int,
    phase: str = "local-max",
) -> list[float]:
    """Each node learns the maximum of ``values`` over its ``depth``-hop ball.

    Charges ``depth`` local rounds.  Used by the diameter algorithm where each
    node computes the largest hop distance it "sees" locally (Algorithm 9).
    """
    network.charge_local_rounds(depth, phase)
    result: list[float] = [float("-inf")] * network.n
    origins = list(values)
    balls = network.local_graph.balls_many(origins, depth)
    for origin, ball in zip(origins, balls, strict=True):
        value = values[origin]
        for reached in ball:
            if value > result[reached]:
                result[reached] = value
    return result
