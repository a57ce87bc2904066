"""Pure-LOCAL baselines: distance computation without the global network.

With only the LOCAL mode, any distance or diameter computation takes ``Θ(D)``
rounds (Section 1): in ``D`` rounds every node can learn the entire graph and
solve everything locally, and no algorithm can do better because information
has to travel ``D`` hops.  These baselines mark the "no global network" end of
the spectrum in the benchmark plots.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as _np

from repro.hybrid.network import HybridNetwork


@dataclass
class LocalOnlyResult:
    """Result of a pure-LOCAL computation: exact answers after ``D`` rounds."""

    rounds: int
    distances: list[dict[int, float]]
    diameter: float


def distances_by_node(matrix: _np.ndarray, sources: Sequence[int]) -> list[dict[int, float]]:
    """``estimates[v][s] = d(s, v)`` for every finite entry of a ``(k, n)`` source-row matrix."""
    estimates: list[dict[int, float]] = [{} for _ in range(matrix.shape[1])]
    for source, row in zip(sources, matrix, strict=True):
        reached = _np.flatnonzero(_np.isfinite(row))
        for node, distance in zip(reached.tolist(), row[reached].tolist(), strict=True):
            estimates[node][source] = distance
    return estimates


def local_only_shortest_paths(
    network: HybridNetwork, sources: Sequence[int], phase: str = "local-only"
) -> LocalOnlyResult:
    """Exact k-SSP using only the local network (``Θ(D)`` rounds)."""
    diameter = network.graph.hop_diameter()
    if diameter == float("inf"):
        raise ValueError("graph must be connected")
    rounds = int(diameter)
    network.charge_local_rounds(rounds, phase)
    estimates = distances_by_node(network.graph.distance_matrix(sources), sources)
    return LocalOnlyResult(rounds=rounds, distances=estimates, diameter=diameter)


def local_only_diameter(
    network: HybridNetwork, phase: str = "local-only-diameter"
) -> LocalOnlyResult:
    """Exact diameter using only the local network (``Θ(D)`` rounds)."""
    diameter = network.graph.hop_diameter()
    if diameter == float("inf"):
        raise ValueError("graph must be connected")
    rounds = int(diameter)
    network.charge_local_rounds(rounds, phase)
    return LocalOnlyResult(rounds=rounds, distances=[], diameter=diameter)
