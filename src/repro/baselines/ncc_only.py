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

import numpy as _np

from repro.baselines.local_only import distances_by_node
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

    # One message per edge, from its smaller endpoint.
    senders = _np.array([u for u, _, _ in graph.edges()], dtype=_np.int64)
    network.run_global_exchange(senders, _np.zeros_like(senders), phase + ":gather")

    matrix = graph.distance_matrix(sources)
    # Node 0 sends every other node one message per source that reaches it.
    targets = _np.nonzero(_np.isfinite(matrix[:, 1:]).T)[0] + 1
    network.run_global_exchange(_np.zeros_like(targets), targets, phase + ":scatter")

    rounds = network.metrics.total_rounds - rounds_before
    return NCCOnlyResult(rounds=rounds, distances=distances_by_node(matrix, sources))
