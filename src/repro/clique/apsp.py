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
from scipy.sparse import csgraph

from repro.clique.interfaces import (
    CliqueAlgorithmSpec,
    CliqueShortestPathAlgorithm,
    CliqueTransport,
)
from repro.graphs.graph import INFINITY
from repro.hybrid.batch import MessageBatch


def _broadcast(senders: _np.ndarray, payloads: _np.ndarray, size: int) -> MessageBatch:
    """Each sender sends its payload to every node ``0..size-1``, in target order."""
    return MessageBatch(
        _np.repeat(senders, size),
        _np.tile(_np.arange(size, dtype=_np.int64), senders.size),
        _np.repeat(payloads, size),
    )


def _gather_weights(transport: CliqueTransport, weights: _np.ndarray) -> _np.ndarray:
    """Make the whole graph known to every node; return its weight matrix (identical everywhere).

    Round ``r``: every node broadcasts its ``r``-th incident edge (by
    neighbour) to all nodes, as the edge's int64 position in the
    concatenated per-node edge lists (the row-major order of the finite
    entries of ``weights``).  The number of CLIQUE rounds is the maximum
    degree (at least 1 so that even an edgeless instance costs a round).
    Both endpoints report an edge, so each entry of the symmetric matrix
    arrives once.
    """
    size = transport.size
    heads, tails = _np.nonzero(_np.isfinite(weights))
    degrees = _np.bincount(heads, minlength=size)
    offsets = _np.cumsum(degrees) - degrees
    known: list[_np.ndarray] = []
    for r in range(max(1, int(degrees.max(initial=1)))):
        senders = _np.flatnonzero(degrees > r)
        delivered = transport.exchange(_broadcast(senders, offsets[senders] + r, size))
        # Every node receives the same edges; record the lowest receiver's.
        if len(delivered):
            known.append(delivered.payloads[delivered.targets == delivered.targets.min()])
    positions = _np.concatenate(known) if known else _np.empty(0, dtype=_np.int64)
    gathered = _np.full((size, size), INFINITY)
    reported = (heads[positions], tails[positions])
    gathered[reported] = weights[reported]
    return gathered


class GatherShortestPaths(CliqueShortestPathAlgorithm):
    """Exact multi-source shortest paths by gathering the graph everywhere."""

    def __init__(self) -> None:
        self.spec = CliqueAlgorithmSpec(
            gamma=1.0, delta=1.0, eta=1.0, alpha=1.0, beta=0.0, name="gather-exact"
        )

    def run(
        self, transport: CliqueTransport, weights: _np.ndarray, sources: Sequence[int]
    ) -> _np.ndarray:
        return csgraph.dijkstra(_gather_weights(transport, weights), indices=list(sources)).T


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
        self, transport: CliqueTransport, weights: _np.ndarray, sources: Sequence[int]
    ) -> _np.ndarray:
        return _np.column_stack(
            [_bellman_ford_phase(transport, weights, source) for source in sources]
        )


def _bellman_ford_phase(
    transport: CliqueTransport, weights: _np.ndarray, source: int
) -> _np.ndarray:
    """One broadcast-based Bellman-Ford run from ``source``; returns all distances.

    Every round, each node with a finite estimate broadcasts it (the origin
    is the sender) and every node relaxes the delivered estimates against its
    row of ``weights``; the run stops after the first round
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
