"""Pure-NCC baseline: distance computation without the local network.

With only the global mode, (approximate) APSP requires ``Ω̃(n)`` rounds because
every node can receive only ``O(log² n)`` bits per round but has to learn
``Ω(n)`` bits of output (Section 1).  This baseline makes that cost concrete:
the whole edge list is funnelled to a coordinator, solved centrally, and the
answers are scattered back -- all over the capacity-limited global network.
It is deliberately simple; its point in the benchmarks is the ``~n`` scaling,
not cleverness.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.graphs import reference
from repro.hybrid.batch import MessageBatch
from repro.hybrid.network import HybridNetwork


@dataclass
class NCCOnlyResult:
    """Result of the global-only gather/solve/scatter baseline."""

    rounds: int
    distances: list[dict[int, float]]


def ncc_only_shortest_paths(
    network: HybridNetwork, sources: Sequence[int], phase: str = "ncc-only"
) -> NCCOnlyResult:
    """Exact k-SSP using only the global network.

    Every node ships its incident edges to node 0 (one message per edge), node
    0 solves the problem and ships each node its ``k`` distances back.  Both
    directions are dominated by node 0's ``O(log n)``-messages-per-round
    bottleneck, i.e. ``Θ̃(m + n·k)`` messages through one node.
    """
    rounds_before = network.metrics.total_rounds
    graph = network.graph

    gather_outboxes: dict[int, list[tuple[int, object]]] = {}
    for u, v, w in graph.edges():
        gather_outboxes.setdefault(u, []).append((0, ("edge", u, v, w)))
    network.run_global_exchange(MessageBatch.from_outboxes(gather_outboxes), phase + ":gather")

    per_source = reference.multi_source_distances(graph, list(sources))
    estimates: list[dict[int, float]] = [dict() for _ in range(network.n)]
    for source, distances in per_source.items():
        for node, value in distances.items():
            estimates[node][source] = value

    scatter_outboxes: dict[int, list[tuple[int, object]]] = {0: []}
    for node in range(network.n):
        for source in sources:
            value = estimates[node].get(source)
            if value is not None and node != 0:
                scatter_outboxes[0].append((node, ("distance", source, value)))
    network.run_global_exchange(MessageBatch.from_outboxes(scatter_outboxes), phase + ":scatter")

    rounds = network.metrics.total_rounds - rounds_before
    return NCCOnlyResult(rounds=rounds, distances=estimates)
