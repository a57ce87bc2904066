"""Multi-source shortest-path algorithms for the CLIQUE model.

The paper plugs the algebraic CLIQUE algorithms of Censor-Hillel et al.
[7, 8] into its framework.  Re-implementing distributed fast matrix
multiplication is out of scope for this reproduction (see the substitution
table in DESIGN.md); instead we provide CLIQUE algorithms with the same
interface and honest round accounting in the simulated CLIQUE:

* :class:`GatherShortestPaths` -- exact APSP / k-SSP with ``δ = 1``: every node
  broadcasts its incident edges (one edge per round to everybody), after which
  each node knows the whole graph and solves the problem locally.  This is the
  classic "learn everything" CLIQUE routine; its declared spec
  ``(γ=1, δ=1, η=1, α=1, β=0)`` is what Theorem 4.1 transforms.
* :class:`BroadcastKSourceBellmanFord` -- exact k-SSP with round complexity
  ``k · SPD(S)``: the ``k`` sources run Bellman-Ford phases one after another,
  each phase broadcasting current estimates.  Declared ``δ = 1`` as well; it
  exists to exercise the framework with a second, structurally different
  algorithm.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as _np

from repro.clique.interfaces import (
    CliqueAlgorithmSpec,
    CliqueShortestPathAlgorithm,
    CliqueTransport,
)
from repro.graphs.graph import INFINITY, WeightedGraph
from repro.hybrid.batch import MessageBatch


def _broadcast(senders: _np.ndarray, payloads: _np.ndarray, size: int) -> MessageBatch:
    """Each sender sends its payload to every node ``0..size-1``, in target order."""
    return MessageBatch(
        _np.repeat(senders, size),
        _np.tile(_np.arange(size, dtype=_np.int64), senders.size),
        _np.repeat(payloads, size),
    )


def _gather_graph(
    transport: CliqueTransport, incident_edges: Sequence[dict[int, int]]
) -> WeightedGraph:
    """Make the whole graph known to every node; return it (identical everywhere).

    Round ``r``: every node broadcasts its ``r``-th incident edge (by
    neighbour) to all nodes, as the edge's int64 position in the
    concatenated per-node edge lists.  The number of CLIQUE rounds is the
    maximum degree (at least 1 so that even an edgeless instance costs a
    round).
    """
    size = transport.size
    heads: list[int] = []
    tails: list[int] = []
    weights: list[int] = []
    for node, edges in enumerate(incident_edges):
        for neighbour, weight in sorted(edges.items()):
            heads.append(node)
            tails.append(neighbour)
            weights.append(weight)
    degrees = _np.asarray([len(edges) for edges in incident_edges], dtype=_np.int64)
    offsets = _np.cumsum(degrees) - degrees
    known: list[_np.ndarray] = []
    for r in range(max(1, int(degrees.max(initial=1)))):
        senders = _np.flatnonzero(degrees > r)
        delivered = transport.exchange(_broadcast(senders, offsets[senders] + r, size))
        # Every node receives the same edges; record the lowest receiver's.
        if len(delivered):
            known.append(delivered.payloads[delivered.targets == delivered.targets.min()])
    graph = WeightedGraph(size)
    positions = _np.concatenate(known).tolist() if known else []
    # Heaviest first: a later add of the same edge replaces the weight, so
    # each edge keeps its lightest reported weight.
    positions.sort(key=lambda position: -weights[position])
    for position in positions:
        if heads[position] != tails[position]:
            graph.add_edge(heads[position], tails[position], weights[position])
    return graph


def _weight_matrix(incident_edges: Sequence[dict[int, int]]) -> _np.ndarray:
    """``W[v, u]`` = the weight ``v`` knows for edge ``{v, u}``, ``inf`` if none."""
    size = len(incident_edges)
    weights = _np.full((size, size), INFINITY)
    for node, edges in enumerate(incident_edges):
        if edges:
            weights[node, list(edges)] = list(edges.values())
    return weights


class GatherShortestPaths(CliqueShortestPathAlgorithm):
    """Exact multi-source shortest paths by gathering the graph everywhere."""

    def __init__(self) -> None:
        self.spec = CliqueAlgorithmSpec(
            gamma=1.0, delta=1.0, eta=1.0, alpha=1.0, beta=0.0, name="gather-exact"
        )

    def run(
        self,
        transport: CliqueTransport,
        incident_edges: Sequence[dict[int, int]],
        sources: Sequence[int],
    ) -> list[dict[int, float]]:
        graph = _gather_graph(transport, incident_edges)
        estimates: list[dict[int, float]] = [dict() for _ in range(transport.size)]
        rows = graph.distance_matrix(sources).tolist()
        for source, row in zip(sources, rows, strict=True):
            for node, distance in enumerate(row):
                estimates[node][source] = distance
        return estimates


class BroadcastKSourceBellmanFord(CliqueShortestPathAlgorithm):
    """Exact k-SSP via per-source Bellman-Ford phases (one broadcast per round).

    Each source runs a Bellman-Ford computation in which every node broadcasts
    its current tentative distance once per round and relaxes against its
    incident edges.  A phase ends when no estimate changed, so the measured
    CLIQUE round count is ``Σ_s (SPD_s(S) + 1)``.
    """

    def __init__(self) -> None:
        self.spec = CliqueAlgorithmSpec(
            gamma=1.0, delta=1.0, eta=1.0, alpha=1.0, beta=0.0, name="bellman-ford-kssp"
        )

    def run(
        self,
        transport: CliqueTransport,
        incident_edges: Sequence[dict[int, int]],
        sources: Sequence[int],
    ) -> list[dict[int, float]]:
        size = transport.size
        weights = _weight_matrix(incident_edges)
        estimates: list[dict[int, float]] = [dict() for _ in range(size)]
        for source in sources:
            distances = _bellman_ford_phase(transport, weights, source).tolist()
            for node in range(size):
                estimates[node][source] = distances[node]
        return estimates


def _bellman_ford_phase(
    transport: CliqueTransport, weights: _np.ndarray, source: int
) -> _np.ndarray:
    """One broadcast-based Bellman-Ford run from ``source``; returns all distances.

    Every round, each node with a finite estimate broadcasts it (the origin
    is the sender) and every node relaxes the delivered estimates against
    ``weights`` (:func:`_weight_matrix`); the run stops after the first round
    that changes nothing, or after ``size`` rounds.
    """
    size = transport.size
    distances = _np.full(size, INFINITY)
    distances[source] = 0.0
    for _ in range(size):
        reached = _np.flatnonzero(distances < INFINITY)
        delivered = transport.exchange(_broadcast(reached, distances[reached], size))
        relaxed = distances.copy()
        targets = delivered.targets
        _np.minimum.at(
            relaxed, targets, delivered.payloads + weights[targets, delivered.senders]
        )
        if not (relaxed < distances).any():
            break
        distances = relaxed
    return distances
