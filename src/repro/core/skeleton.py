"""Distributed skeleton-graph construction (Algorithm 6, Lemmas C.1 / C.2).

A skeleton graph ``S = (V_S, E_S)`` is obtained by sampling every node of the
local graph ``G`` with probability ``1/x`` and connecting sampled nodes that
are within ``h ∈ Θ(x log n)`` hops of each other with an edge weighted by
their ``h``-hop-limited distance.  W.h.p. the skeleton is connected, preserves
exact distances between sampled nodes (Lemma C.2) and, on every long shortest
path of ``G``, a sampled node appears at least every ``h`` hops (Lemma C.1).

The construction costs ``Õ(x)`` local rounds: sampled nodes learn their
skeleton neighbourhood by flooding graph information to depth ``h``, and every
node simultaneously learns its ``h``-limited distances to the nearby skeleton
nodes (which is all later phases need from it).  The simulator charges the
whole exploration but computes only the skeleton members' ``d_h`` rows; the
full ``n × n`` matrix is built on demand, for the one step that reads it
(see :class:`~repro.localnet.flooding.LimitedExploration`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from repro.graphs.skeleton_analysis import skeleton_hop_length
from repro.hybrid.network import HybridNetwork
from repro.localnet.flooding import LimitedExploration, explore_limited
from repro.util.rand import sample_nodes


@dataclass
class Skeleton:
    """A constructed skeleton graph plus the per-node local knowledge about it.

    Built only by :func:`skeleton_from_exploration`, which derives every
    field from one depth-``h`` exploration and its members' ``d_h`` rows.

    Attributes
    ----------
    nodes:
        The sampled node IDs ``V_S`` (original graph IDs, sorted).
    index_of:
        Mapping original node ID -> index in the relabelled skeleton graph.
    weights:
        The skeleton ``S`` itself on nodes ``0..|V_S|-1``: the read-only,
        symmetric ``|V_S| × |V_S|`` float64 matrix of edge weights
        ``max(1, round(d_h))``, ``inf`` where there is no edge (the diagonal
        included).  Row ``i`` is skeleton node ``i``'s incident edges, its
        local input to a simulated CLIQUE algorithm (Fact 4.3).
    sampling_probability:
        The probability each node was sampled with.
    rounds_charged:
        Rounds consumed by the construction.
    exploration:
        The depth-``h`` exploration the skeleton was built from.  It holds
        the frozen snapshot of the graph version it explored, and skeletons
        derived from it (:meth:`SkeletonContext.extended
        <repro.core.context.SkeletonContext.extended>`) share it.
    near_distances:
        The read-only, C-contiguous ``n × |V_S|`` matrix
        ``near_distances[v, i] = d_h(v, nodes[i])``: what every node ``v``
        knows about the skeleton nodes within ``h`` hops (Lemma 4.5,
        Equation (1)).  It is the transpose of the members' ``d_h`` rows,
        which ``d_h``'s symmetry makes exact.
    """

    nodes: list[int]
    index_of: dict[int, int]
    weights: np.ndarray = field(repr=False)
    sampling_probability: float
    rounds_charged: int
    exploration: LimitedExploration = field(repr=False)
    near_distances: np.ndarray = field(repr=False)

    @property
    def hop_length(self) -> int:
        """The parameter ``h``: maximum hop length of a skeleton edge."""
        return self.exploration.hop_length

    @property
    def knowledge_matrix(self) -> np.ndarray:
        """The full exploration outcome ``M[v, u] = d_h(v, u)`` (``inf`` outside the ball).

        Only the final combination step of the exact APSP algorithm of
        Section 3 (and the broadcast baseline reusing it) reads every pair.
        The matrix is computed from the exploration's snapshot on the first
        read, cached read-only and shared with every skeleton derived from
        the same exploration.
        """
        return self.exploration.matrix()

    @property
    def size(self) -> int:
        """``|V_S|``."""
        return len(self.nodes)

    def contains(self, node: int) -> bool:
        """Whether the original node ``node`` was sampled into ``V_S``."""
        return node in self.index_of

    def original_id(self, index: int) -> int:
        """The original graph ID of skeleton index ``index``."""
        return self.nodes[index]

    def is_connected(self) -> bool:
        """Whether the skeleton graph ``S`` is connected."""
        return weights_connected(self.weights)

    def distances(self) -> np.ndarray:
        """All-pairs skeleton distances ``d_S`` (``inf`` between components)."""
        return csgraph.dijkstra(self.weights)

    def closest_skeleton_node(self, node: int) -> int | None:
        """The skeleton node minimising ``d_h(node, ·)`` (None if none within ``h`` hops).

        Ties go to the smallest node ID: ``nodes`` is sorted and ``argmin``
        returns the first minimum.
        """
        row = self.near_distances[node]
        index = int(np.argmin(row))
        if not np.isfinite(row[index]):
            return None
        return self.nodes[index]


def weights_connected(weights: np.ndarray) -> bool:
    """Whether a symmetric weight matrix (``inf`` = no edge) is one component.

    A boolean frontier search from node 0 over the finite entries: one
    ``any`` over the frontier's rows per hop, with none of the validation
    a sparse-graph routine spends on a small dense matrix.  No node and one
    node are both connected.
    """
    edges = np.isfinite(weights)
    reached = np.zeros(edges.shape[0], dtype=bool)
    if not reached.size:
        return True
    reached[0] = True
    frontier = reached
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())


def skeleton_from_exploration(
    exploration: LimitedExploration,
    nodes: Sequence[int],
    rows: np.ndarray,
    sampling_probability: float,
    rounds_charged: int,
) -> Skeleton:
    """The skeleton on the sorted ``nodes`` induced by an exploration outcome.

    ``rows`` holds the members' ``d_h`` rows of ``exploration``
    (``rows[i, v] = d_h(nodes[i], v)``, ``inf`` outside the ball); sampled
    nodes within each other's ball are connected by an edge weighted
    ``max(1, round(d_h))``, read off the upper triangle and mirrored.  The
    one constructor of :class:`Skeleton`, shared by :func:`compute_skeleton`,
    :meth:`SkeletonContext.extended
    <repro.core.context.SkeletonContext.extended>` and
    :meth:`SkeletonContext.repair <repro.core.context.SkeletonContext.repair>`
    so the three paths can never diverge.
    """
    nodes = list(nodes)
    weights = np.maximum(1.0, np.round(rows[:, np.asarray(nodes, dtype=np.int64)]))
    lower = np.tril_indices(len(nodes))
    weights[lower] = weights.T[lower]
    np.fill_diagonal(weights, np.inf)
    weights.flags.writeable = False
    near_distances = np.ascontiguousarray(rows.T)
    near_distances.flags.writeable = False
    return Skeleton(
        nodes=nodes,
        index_of={node: index for index, node in enumerate(nodes)},
        weights=weights,
        sampling_probability=sampling_probability,
        rounds_charged=rounds_charged,
        exploration=exploration,
        near_distances=near_distances,
    )


def compute_skeleton(
    network: HybridNetwork,
    sampling_probability: float,
    forced_members: Sequence[int] = (),
    phase: str = "skeleton",
    ensure_connected: bool = False,
) -> Skeleton:
    """Run Algorithm 6 (``Compute-Skeleton``) on the network.

    The exploration charges its ``min(h, D)`` local rounds but computes only
    the members' ``d_h`` rows; the returned skeleton builds the full
    ``knowledge_matrix`` from the exploration's snapshot if something reads
    it.  At simulation scale the random sample can come
    out empty; node 0 is then drafted so downstream phases always have a
    skeleton to work with (the asymptotic statements are unaffected).

    Parameters
    ----------
    sampling_probability:
        Each node joins ``V_S`` independently with this probability
        (``1/n^{1-x}`` in the framework of Section 4).
    forced_members:
        Nodes added to ``V_S`` deterministically -- Algorithm 6 adds the source
        when the simulated CLIQUE algorithm is an SSSP algorithm (``γ = 0``).
    ensure_connected:
        Lemma C.2 guarantees a connected skeleton w.h.p. for the asymptotic
        choice of ``h``; at simulation scale the constant-factor choice of
        ``ξ`` can occasionally produce a disconnected skeleton.  When True the
        exploration depth is doubled (and re-charged) until the skeleton is
        connected, which keeps small instances correct without affecting the
        measured asymptotic shape.
    """
    if not 0 < sampling_probability <= 1:
        raise ValueError("sampling_probability must be in (0, 1]")
    rng = network.fork_rng(phase + ":sampling")
    rounds_before = network.metrics.total_rounds

    sampled = set(sample_nodes(network.graph.nodes(), sampling_probability, rng))
    sampled.update(forced_members)
    if not sampled:
        sampled.add(0)
    nodes = sorted(sampled)

    denominator = 1.0 / sampling_probability
    hop_length = skeleton_hop_length(network.n, denominator, xi=network.config.skeleton_xi)

    while True:
        # Local exploration to depth h: every node learns its h-limited
        # distances; skeleton nodes in particular learn their incident
        # skeleton edges.  Only the members' rows are computed here; a
        # connectivity retry re-runs (and conservatively re-charges) the
        # exploration at the doubled depth.
        exploration = explore_limited(network, hop_length, phase=phase + ":exploration")
        skeleton = skeleton_from_exploration(
            exploration,
            nodes,
            exploration.rows(nodes),
            sampling_probability,
            network.metrics.total_rounds - rounds_before,
        )
        connected = skeleton.is_connected()
        if connected or not ensure_connected or hop_length >= network.n:
            return skeleton
        hop_length = min(network.n, 2 * hop_length)


def framework_exponent(delta: float) -> float:
    """The skeleton-size exponent ``x = 2 / (3 + 2δ)`` of Theorems 4.1 and 5.1."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return 2.0 / (3.0 + 2.0 * delta)


def framework_sampling_probability(n: int, delta: float) -> float:
    """The sampling probability ``1 / n^{1-x}`` used by Algorithms 5 and 9."""
    x = framework_exponent(delta)
    if n < 2:
        return 1.0
    return min(1.0, n ** (x - 1.0))
