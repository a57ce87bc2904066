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
theorems count.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from typing import TypeVar

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
    network: HybridNetwork, depth: int, phase: str = "local-exploration", exact: bool = True
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
    either way).  Earlier revisions defaulted to a pruned-Dijkstra approximation
    (``exact=False``) because the literal computation was too slow one Python
    traversal at a time; the batched kernels made the faithful quantity the
    fast path, so the approximation was removed.  ``exact`` remains accepted
    for backwards compatibility; requesting the removed approximation warns.
    """
    if not exact:
        warnings.warn(
            "explore_limited_distances(exact=False) is deprecated: the pruned "
            "approximation was removed and the literal d_h is returned instead",
            DeprecationWarning,
            stacklevel=2,
        )
    network.charge_local_rounds(depth, phase)
    return network.local_graph.hop_limited_distances_many(range(network.n), depth)


def explore_limited_distance_matrix(
    network: HybridNetwork, depth: int, phase: str = "local-exploration"
):
    """Matrix form of :func:`explore_limited_distances` (``inf`` outside balls).

    Charges ``depth`` local rounds and returns the dense ``(n, n)`` numpy
    array ``M[v, u] = d_depth(v, u)``.  Used by consumers that immediately
    combine the exploration with other matrices (skeleton construction, APSP).
    """
    network.charge_local_rounds(depth, phase)
    return network.local_graph.hop_limited_distance_matrix(range(network.n), depth)


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
